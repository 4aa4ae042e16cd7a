"""`RenderService`: fault-tolerant single-box request serving.

The serving layer multiplexes many concurrent trajectory requests over
a bounded worker pool on top of the engine's self-healing
:class:`~repro.engine.session.RenderSession`.  Robustness is the
headline, built from four cooperating mechanisms:

**Admission control.**  A bounded FIFO queue with typed rejections:
``queue_full`` (absolute bound), ``shedding`` (soft threshold
``shed_at`` — normal-priority requests are shed while the queue is deep,
high-priority ones pass), and ``deadline_unmeetable`` (an EWMA service
model of observed per-frame cost predicts the deadline cannot be met,
so the request is refused up-front instead of burning a worker).

**Deadlines.**  An admitted deadline carries its remaining budget into
the engine's cooperative per-frame ``watchdog_ms`` (PR 7), so an
injected stall — or any runaway attempt — is cut at the next checkpoint
and the frame heals through the degradation ladder within the budget.
A deadline that expires while the request waits in the queue resolves
as a typed ``Failed(reason="deadline")``, never a silent loss.

**Healing.**  Per-frame healing is the session ladder's job (primary
→ retry → reference, see :class:`~repro.engine.session.RenderSession`).
Every response carries the structured incident trail and
``incident_summary`` (with ``healing_ms`` latency attribution).

**Residency and caching.**  Sessions live in a bounded LRU
(:class:`~repro.serve.residency.SceneResidency`) so repeat traffic for
a scene reuses the warm coherence carrier (and, opt-in, a warm CROP
cache) across requests; the shared on-disk
:class:`~repro.engine.cache.ResultCache` (now with a size-budget LRU
sweep) serves bit-exact repeat trajectories without rendering at all.

The core invariant — enforced by the chaos suite — is that **no request
is ever lost or silently wrong**: every admitted request terminates in
a bit-exact result (possibly via the reference rung, with incidents
attached) or a typed failure, and every rejected request gets a typed
reason, under any fault plan and any concurrency.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.engine.executor import FrameLadderExhausted
from repro.engine.session import RenderSession
from repro.knobs import env as knobs_env
from repro.serve.request import (
    Completed,
    Failed,
    PendingRequest,
    Rejected,
    RenderRequest,
)
from repro.serve.residency import SceneResidency

#: EWMA smoothing for the service-time model (higher = more reactive).
_EWMA_ALPHA = 0.3


def _percentiles(values_ms):
    """p50/p95/p99 of a latency list (empty dict when no samples)."""
    if not values_ms:
        return {}
    arr = np.asarray(values_ms, dtype=np.float64)
    return {
        "latency_p50_ms": float(np.percentile(arr, 50)),
        "latency_p95_ms": float(np.percentile(arr, 95)),
        "latency_p99_ms": float(np.percentile(arr, 99)),
    }


class _QueueItem:
    """One admitted request waiting for a worker."""

    __slots__ = ("request", "pending", "submitted")

    def __init__(self, request, pending, submitted):
        self.request = request
        self.pending = pending
        self.submitted = submitted  # monotonic seconds at admission


class RenderService:
    """Single-box trajectory-serving scheduler (see module docstring).

    Parameters
    ----------
    workers:
        Worker-pool size (default ``$REPRO_SERVE_WORKERS`` or 2).
    queue_limit:
        Absolute queued-request bound (default ``$REPRO_SERVE_QUEUE`` or
        16); submissions beyond it are ``Rejected(reason="queue_full")``.
    shed_at:
        Soft load-shedding threshold: while the queue holds at least
        this many requests, normal-priority submissions are
        ``Rejected(reason="shedding")``.  Defaults to 3/4 of
        ``queue_limit``; ``None`` never sheds below ``queue_limit``.
    device:
        Device preset shared by every session the service builds.
    result_cache:
        Optional shared :class:`~repro.engine.cache.ResultCache`;
        repeat trajectories are then served bit-exact from disk.
    max_residents:
        Entry budget of the resident-scene LRU.
    default_deadline_ms:
        Deadline applied to requests that don't carry their own.

    Use as a context manager (``with RenderService(...) as svc:``) or
    call :meth:`close` explicitly; queued requests are drained (or, with
    ``drain=False``, resolved as typed shutdown rejections) — never
    dropped.
    """

    def __init__(self, workers=None, queue_limit=None, shed_at=None,
                 device="orin", result_cache=None, max_residents=4,
                 default_deadline_ms=None):
        if workers is None:
            workers = int(knobs_env("REPRO_SERVE_WORKERS"))
        if queue_limit is None:
            queue_limit = int(knobs_env("REPRO_SERVE_QUEUE"))
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.workers = int(workers)
        self.queue_limit = int(queue_limit)
        if shed_at is None:
            shed_at = max(1, (3 * self.queue_limit) // 4)
        elif shed_at is not False and not 1 <= int(shed_at) <= queue_limit:
            raise ValueError(
                f"shed_at must be in [1, queue_limit], got {shed_at}")
        self.shed_at = None if shed_at is False else int(shed_at)
        self.device = device
        self.result_cache = result_cache
        self.residency = SceneResidency(max_residents=max_residents)
        self.default_deadline_ms = default_deadline_ms

        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue = deque()
        self._closed = False
        self._drain = True
        self._next_id = 0
        self._started = time.monotonic()
        self._counters = {
            "submitted": 0, "admitted": 0, "completed": 0, "failed": 0,
            "rejected": 0, "from_cache": 0, "incidents": 0,
        }
        self._rejected_by_reason = {}
        self._latencies_ms = []
        self._ewma_frame_ms = None
        self._ewma_request_ms = None
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-serve-{i}", daemon=True)
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission and admission control
    # ------------------------------------------------------------------

    def request(self, scene=None, timeout=None, **kwargs):
        """Blocking convenience: submit and wait for the typed response.

        Accepts either a ready :class:`RenderRequest` (as ``scene``) or
        the request's keyword fields.
        """
        if isinstance(scene, RenderRequest):
            req = scene
        else:
            req = RenderRequest(scene, **kwargs)
        return self.submit(req).result(timeout)

    def submit(self, request):
        """Admit (or reject) ``request``; returns a :class:`PendingRequest`.

        Rejections resolve the handle synchronously with a typed
        :class:`Rejected` response — the handle API is uniform either
        way, and no submission path can lose a request.
        """
        pending = PendingRequest(request)
        now = time.monotonic()
        with self._lock:
            self._counters["submitted"] += 1
            if request.request_id is None:
                request.request_id = f"req-{self._next_id:06d}"
            self._next_id += 1
            rejection = self._admission_verdict(request)
            if rejection is not None:
                self._counters["rejected"] += 1
                self._rejected_by_reason[rejection.reason] = (
                    self._rejected_by_reason.get(rejection.reason, 0) + 1)
                pending._resolve(rejection)
                return pending
            self._counters["admitted"] += 1
            self._queue.append(_QueueItem(request, pending, now))
            self._not_empty.notify()
        return pending

    def _admission_verdict(self, request):
        """A typed :class:`Rejected` for ``request``, or ``None`` to admit.

        Called under the service lock.
        """
        if self._closed:
            return Rejected(request.request_id, "shutdown",
                            detail="service is shutting down")
        deadline_ms = (request.deadline_ms
                       if request.deadline_ms is not None
                       else self.default_deadline_ms)
        if deadline_ms is not None:
            if deadline_ms <= 0:
                return Rejected(request.request_id, "deadline_unmeetable",
                                detail="non-positive deadline")
            estimate = self._estimate_ms(request)
            if estimate is not None and estimate > deadline_ms:
                return Rejected(
                    request.request_id, "deadline_unmeetable",
                    detail=(f"estimated {estimate:.1f} ms service+queue "
                            f"time exceeds the {deadline_ms:g} ms "
                            "deadline"))
        depth = len(self._queue)
        if depth >= self.queue_limit:
            return Rejected(request.request_id, "queue_full",
                            detail=f"{depth} requests queued "
                                   f"(limit {self.queue_limit})")
        if (self.shed_at is not None and depth >= self.shed_at
                and request.priority != "high"):
            return Rejected(request.request_id, "shedding",
                            detail=f"{depth} requests queued "
                                   f"(shedding at {self.shed_at}; "
                                   "priority='high' bypasses)")
        return None

    def _estimate_ms(self, request):
        """EWMA prediction of queue wait + service time, or ``None``.

        ``None`` (no completions observed yet) admits optimistically —
        the model cannot reject traffic it has never measured.
        """
        if self._ewma_frame_ms is None:
            return None
        queue_ms = len(self._queue) * (self._ewma_request_ms or 0.0)
        return queue_ms + request.views * self._ewma_frame_ms

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _worker_loop(self):
        """Worker-pool entry point: pop admitted requests and serve them.

        Every popped request is resolved exactly once — even when the
        handler itself raises, the fallback resolution turns the error
        into a typed :class:`Failed` response.
        """
        while True:
            with self._not_empty:
                while not self._queue and not self._closed:
                    self._not_empty.wait()
                if not self._queue:
                    return  # closed and drained
                item = self._queue.popleft()
            try:
                response = self._handle_request(item)
            except Exception as exc:  # never lose the request
                response = Failed(
                    item.request.request_id, "error",
                    f"{type(exc).__name__}: {exc}",
                    latency_ms=(time.monotonic() - item.submitted) * 1e3)
            self._finish(item, response)

    def _handle_request(self, item):
        """Serve one admitted request; always returns a typed response."""
        request = item.request
        started = time.monotonic()
        queue_ms = (started - item.submitted) * 1e3

        deadline_ms = (request.deadline_ms
                       if request.deadline_ms is not None
                       else self.default_deadline_ms)
        watchdog_ms = None
        if deadline_ms is not None:
            remaining = deadline_ms - queue_ms
            if remaining <= 0:
                return Failed(
                    request.request_id, "deadline",
                    f"deadline ({deadline_ms:g} ms) expired after "
                    f"{queue_ms:.1f} ms in queue",
                    latency_ms=queue_ms, queue_ms=queue_ms)
            # The watchdog budget is per frame *attempt*; splitting the
            # remaining budget across the frames keeps a single stalled
            # frame from consuming the whole request's allowance.
            watchdog_ms = remaining / request.views

        key = (request.scene, request.backend, request.baseline,
               self.device, request.seed, request.warm_crop_cache)
        resident = self.residency.acquire(
            key, lambda: self._build_session(request))
        try:
            session = resident.session
            session.strict = request.strict
            session.watchdog_ms = watchdog_ms
            crop_cache = (resident.warm_crop_cache()
                          if request.warm_crop_cache else None)
            try:
                result = session.run(n_views=request.views,
                                     crop_cache=crop_cache)
            except FrameLadderExhausted as exc:
                return Failed(
                    request.request_id, "ladder_exhausted", str(exc),
                    incidents=[inc.to_dict() for inc in exc.incidents],
                    latency_ms=(time.monotonic() - item.submitted) * 1e3,
                    queue_ms=queue_ms)
            except Exception as exc:
                reason = "strict" if request.strict else "error"
                return Failed(
                    request.request_id, reason,
                    f"{type(exc).__name__}: {exc}",
                    latency_ms=(time.monotonic() - item.submitted) * 1e3,
                    queue_ms=queue_ms)
        finally:
            self.residency.release(resident)
        done = time.monotonic()
        return Completed(
            request.request_id,
            aggregates=result.aggregates(),
            incidents=result.incidents(),
            incident_summary=result.incident_summary(),
            from_cache=result.from_cache,
            latency_ms=(done - item.submitted) * 1e3,
            queue_ms=queue_ms,
            service_ms=(done - started) * 1e3)

    def _build_session(self, request):
        """A fresh resident session for ``request``."""
        return RenderSession(
            request.scene, backend=request.backend,
            baseline=request.baseline, device=self.device,
            seed=request.seed, warm_crop_cache=request.warm_crop_cache,
            result_cache=self.result_cache)

    def _finish(self, item, response):
        """Record KPIs and resolve the pending handle."""
        with self._lock:
            if response.status == "ok":
                self._counters["completed"] += 1
                self._counters["incidents"] += response.incident_summary.get(
                    "count", 0)
                if response.from_cache:
                    self._counters["from_cache"] += 1
                self._latencies_ms.append(response.latency_ms)
                frame_ms = response.service_ms / item.request.views
                if self._ewma_frame_ms is None:
                    self._ewma_frame_ms = frame_ms
                    self._ewma_request_ms = response.service_ms
                else:
                    self._ewma_frame_ms += _EWMA_ALPHA * (
                        frame_ms - self._ewma_frame_ms)
                    self._ewma_request_ms += _EWMA_ALPHA * (
                        response.service_ms - self._ewma_request_ms)
            else:
                self._counters["failed"] += 1
        item.pending._resolve(response)

    # ------------------------------------------------------------------
    # Lifecycle and observability
    # ------------------------------------------------------------------

    def close(self, drain=True, timeout=None):
        """Stop accepting requests and shut the worker pool down.

        ``drain=True`` serves every queued request first; ``drain=False``
        resolves queued requests as typed shutdown rejections.  Either
        way no request is dropped.  Idempotent.
        """
        with self._lock:
            self._closed = True
            if not drain:
                while self._queue:
                    item = self._queue.popleft()
                    self._counters["admitted"] -= 1
                    self._counters["rejected"] += 1
                    self._rejected_by_reason["shutdown"] = (
                        self._rejected_by_reason.get("shutdown", 0) + 1)
                    item.pending._resolve(Rejected(
                        item.request.request_id, "shutdown",
                        detail="service closed before execution"))
            self._not_empty.notify_all()
        for thread in self._threads:
            thread.join(timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def queue_depth(self):
        with self._lock:
            return len(self._queue)

    def stats(self):
        """JSON-safe KPI snapshot of the service so far.

        Counters, latency percentiles over completed requests, queue
        depth, throughput since start, plus nested residency /
        result-cache snapshots — the per-request latency & health KPIs
        reported as first-class outputs.
        """
        with self._lock:
            elapsed_s = time.monotonic() - self._started
            snapshot = {
                **self._counters,
                "rejected_by_reason": dict(self._rejected_by_reason),
                "queue_depth": len(self._queue),
                "workers": self.workers,
                "queue_limit": self.queue_limit,
                "shed_at": self.shed_at,
                "elapsed_s": elapsed_s,
                "throughput_rps": (self._counters["completed"] / elapsed_s
                                   if elapsed_s > 0 else 0.0),
                "ewma_frame_ms": self._ewma_frame_ms,
                **_percentiles(self._latencies_ms),
            }
        snapshot["residency"] = self.residency.stats()
        if self.result_cache is not None:
            snapshot["result_cache"] = self.result_cache.stats()
        return snapshot
