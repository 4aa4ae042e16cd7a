"""Request/response schema of the serving layer.

One :class:`RenderRequest` asks for one trajectory (``views`` frames of
one scene through one backend).  Every submitted request terminates in
exactly one typed response — the service's core invariant is that no
request is ever lost or silently wrong:

:class:`Completed`
    The trajectory ran (possibly healed through the degradation ladder,
    possibly served from the disk result cache) and its aggregates are
    **bit-exact** to a fault-free run of the same request.  Carries the
    structured incident trail and its
    :meth:`~repro.engine.session.TrajectoryResult.incident_summary`.
:class:`Rejected`
    Admission control turned the request away *before* any work ran,
    with a typed ``reason`` (see :data:`REJECT_REASONS`).
:class:`Failed`
    The request was admitted but could not produce a result: the
    degradation ladder exhausted, a strict request raised through, or
    the deadline expired.  Carries the error and any incident trail —
    a typed failure, never a silent loss.

Responses are plain data (``to_dict()`` is JSON-safe) so the load
generator, the bench suite and the CLI can all consume them uniformly.
"""

from __future__ import annotations

import threading

#: Typed admission-rejection reasons.
REJECT_REASONS = ("queue_full", "deadline_unmeetable", "shedding",
                  "shutdown")

#: Typed post-admission failure reasons.
FAILURE_REASONS = ("deadline", "ladder_exhausted", "strict", "error")


class RenderRequest:
    """One client request: render ``views`` frames of ``scene``.

    ``deadline_ms`` is the end-to-end budget from submission: admission
    rejects requests whose estimated service time cannot meet it
    (``deadline_unmeetable``), and admitted requests carry the remaining
    budget into the engine's per-frame ``watchdog_ms`` so injected
    stalls are cut at the next checkpoint instead of blocking a worker.
    ``priority`` ``"high"`` exempts a request from load shedding (not
    from ``queue_full`` — the queue bound is absolute).  ``strict``
    restores raise-through semantics (failures surface as typed
    :class:`Failed` responses instead of healing through the ladder).
    ``warm_crop_cache`` renders through the scene's resident warm CROP
    cache, reusing it across requests for the same scene — cycle counts
    then depend on the resident's request history, so warm requests are
    excluded from the disk result cache and from the service's
    bit-exactness invariant (which covers the default cold
    configuration).
    """

    __slots__ = ("scene", "backend", "baseline", "views", "seed",
                 "deadline_ms", "priority", "strict", "warm_crop_cache",
                 "request_id")

    def __init__(self, scene, backend="hw:het+qm", baseline=None, views=1,
                 seed=0, deadline_ms=None, priority="normal", strict=False,
                 warm_crop_cache=False, request_id=None):
        if int(views) <= 0:
            raise ValueError(f"views must be positive, got {views}")
        if priority not in ("normal", "high"):
            raise ValueError(
                f"priority must be 'normal' or 'high', got {priority!r}")
        self.scene = str(scene)
        self.backend = backend
        self.baseline = baseline
        self.views = int(views)
        self.seed = int(seed)
        self.deadline_ms = (None if deadline_ms is None
                            else float(deadline_ms))
        self.priority = priority
        self.strict = bool(strict)
        self.warm_crop_cache = bool(warm_crop_cache)
        self.request_id = request_id

    def config_key(self):
        """Everything that determines the request's numeric results.

        Two requests with equal config keys must produce bit-identical
        aggregates (the chaos soak's oracle map is keyed by this).  The
        key deliberately excludes ``deadline_ms``/``priority``/``strict``
        (operational knobs) and the service's ``ir``/``coherence``
        overrides (bit-identical modes by construction).
        """
        return (self.scene, self.backend, self.baseline, self.views,
                self.seed, self.warm_crop_cache)

    def __repr__(self):
        return (f"RenderRequest({self.request_id or '?'}: {self.scene}/"
                f"{self.backend} x{self.views})")


class _Response:
    """Common response fields; subclasses set :attr:`status`."""

    status = None

    def __init__(self, request_id, latency_ms=0.0, queue_ms=0.0):
        self.request_id = request_id
        self.latency_ms = float(latency_ms)
        self.queue_ms = float(queue_ms)

    @property
    def ok(self):
        return self.status == "ok"

    def to_dict(self):
        return {"status": self.status, "request_id": self.request_id,
                "latency_ms": self.latency_ms, "queue_ms": self.queue_ms}


class Completed(_Response):
    """The request produced a bit-exact trajectory result.

    ``aggregates`` are the trajectory's summary statistics (bit-exact vs
    a fault-free run of the same request config); ``incidents`` /
    ``incident_summary`` the structured healing trail; ``from_cache``
    whether the disk result cache served the run; ``service_ms`` the
    measured execution wall clock (queue wait excluded).
    """

    status = "ok"

    def __init__(self, request_id, aggregates, incidents=None,
                 incident_summary=None, from_cache=False, latency_ms=0.0,
                 queue_ms=0.0, service_ms=0.0):
        super().__init__(request_id, latency_ms, queue_ms)
        self.aggregates = dict(aggregates)
        self.incidents = list(incidents or [])
        self.incident_summary = dict(incident_summary or {"count": 0})
        self.from_cache = bool(from_cache)
        self.service_ms = float(service_ms)

    def to_dict(self):
        payload = super().to_dict()
        payload.update(aggregates=self.aggregates, incidents=self.incidents,
                       incident_summary=self.incident_summary,
                       from_cache=self.from_cache,
                       service_ms=self.service_ms)
        return payload

    def __repr__(self):
        return (f"Completed({self.request_id}, {self.latency_ms:.1f} ms, "
                f"incidents={self.incident_summary.get('count', 0)})")


class Rejected(_Response):
    """Admission control refused the request before any work ran."""

    status = "rejected"

    def __init__(self, request_id, reason, detail=None, latency_ms=0.0):
        if reason not in REJECT_REASONS:
            raise ValueError(
                f"unknown rejection reason {reason!r}; "
                f"choose from {REJECT_REASONS}")
        super().__init__(request_id, latency_ms)
        self.reason = reason
        self.detail = detail

    def to_dict(self):
        payload = super().to_dict()
        payload.update(reason=self.reason, detail=self.detail)
        return payload

    def __repr__(self):
        return f"Rejected({self.request_id}, reason={self.reason!r})"


class Failed(_Response):
    """An admitted request could not produce a result (typed, not lost)."""

    status = "failed"

    def __init__(self, request_id, reason, error, incidents=None,
                 latency_ms=0.0, queue_ms=0.0):
        if reason not in FAILURE_REASONS:
            raise ValueError(
                f"unknown failure reason {reason!r}; "
                f"choose from {FAILURE_REASONS}")
        super().__init__(request_id, latency_ms, queue_ms)
        self.reason = reason
        self.error = str(error)
        self.incidents = list(incidents or [])

    def to_dict(self):
        payload = super().to_dict()
        payload.update(reason=self.reason, error=self.error,
                       incidents=self.incidents)
        return payload

    def __repr__(self):
        return (f"Failed({self.request_id}, reason={self.reason!r}, "
                f"error={self.error!r})")


class PendingRequest:
    """Handle returned by :meth:`RenderService.submit`.

    Resolves exactly once — with a :class:`Completed`, :class:`Rejected`
    or :class:`Failed` response — and :meth:`result` blocks until then.
    Synchronously rejected requests come back already resolved.
    """

    def __init__(self, request):
        self.request = request
        self._event = threading.Event()
        self._response = None

    def done(self):
        return self._event.is_set()

    def result(self, timeout=None):
        """The response, blocking up to ``timeout`` seconds.

        Raises ``TimeoutError`` if the response has not arrived in time
        (the request itself stays in flight and resolves later).
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id!r} not resolved within "
                f"{timeout} s")
        return self._response

    def _resolve(self, response):
        if self._event.is_set():  # pragma: no cover - defensive
            raise RuntimeError(
                f"request {self.request.request_id!r} resolved twice")
        self._response = response
        self._event.set()
