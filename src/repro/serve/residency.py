"""Scene residency: a bounded LRU of warm per-scene serving state.

A :class:`~repro.engine.session.RenderSession` accumulates expensive
warm state — the scene's Gaussian cloud, the cross-frame coherence
carrier (a byte-budgeted library of digested frames), the lazily built
reference-rung backends, and (for warm requests) a persistent CROP
cache.  Rebuilding all of that per request would throw the engine's
temporal-coherence work away at the service boundary, but keeping every
scene resident forever is an unbounded memory leak under diverse
traffic.

:class:`SceneResidency` is the middle ground: a bounded LRU keyed by
the request's session configuration.  Hits reuse the resident session
(and with it the coherence carrier, so revisited viewpoints digest
incrementally across *requests*, not just across frames of one
request); misses build a fresh session and evict least-recently-used
idle residents over the ``max_residents`` budget.
Residents in use are never evicted — eviction only considers idle
entries, so a long request cannot have its session freed mid-run.

Correctness: evicting (or never having) a resident changes *wall-clock
only*.  The coherence modes are bit-identical by construction (PR 6),
so a request served by a cold rebuild produces exactly the bytes a warm
resident would — the service's bit-exactness invariant survives any
eviction schedule.  The one deliberate exception is the opt-in warm
CROP cache (``warm_crop_cache`` requests), whose *modeled* cycle counts
depend on the resident's request history by design.
"""

from __future__ import annotations

import threading


class ResidentScene:
    """One resident (scene, configuration) and its warm serving state.

    ``lock`` serializes requests onto the resident's session — sessions
    carry mutable cross-frame state (coherence carrier, warm CROP
    cache) and are not safe for concurrent runs; different residents
    run in parallel across the worker pool.  ``crop_cache`` is the
    persistent CROP cache shared by this resident's warm requests
    (built on first use).
    """

    def __init__(self, key, session):
        self.key = key
        self.session = session
        self.lock = threading.Lock()
        self.crop_cache = None
        self.uses = 0
        self.active = 0

    def warm_crop_cache(self):
        """The resident's persistent CROP cache (built on first call)."""
        if self.crop_cache is None:
            self.crop_cache = self.session.backend.new_crop_cache()
        return self.crop_cache


class SceneResidency:
    """Bounded LRU of :class:`ResidentScene` entries.

    ``max_residents`` bounds the entry count.  The budget only ever
    evicts *idle* residents, so it is soft under pathological
    concurrency (every resident in use) — bounded admission upstream
    keeps that case bounded too.  Each resident's own memory is bounded
    by its coherence carrier's byte budget.
    """

    def __init__(self, max_residents=4):
        if max_residents < 1:
            raise ValueError(
                f"max_residents must be >= 1, got {max_residents}")
        self.max_residents = int(max_residents)
        self._lock = threading.Lock()
        self._residents = {}   # key -> ResidentScene (dicts keep LRU via
        self._counters = {"hits": 0, "misses": 0, "evictions": 0}
        self._seq = 0          # re-insertion; _seq breaks exact ties)

    def acquire(self, key, build):
        """Return the resident for ``key`` (building via ``build()`` on a
        miss), with its per-resident lock **held** — callers must pair
        with :meth:`release`.  The registry lock is dropped before the
        resident lock is taken, so slow requests never block other
        scenes' acquisitions.
        """
        with self._lock:
            resident = self._residents.pop(key, None)
            if resident is None:
                self._counters["misses"] += 1
                resident = ResidentScene(key, build())
            else:
                self._counters["hits"] += 1
            self._residents[key] = resident  # most-recently-used position
            resident.active += 1
            resident.uses += 1
            self._evict_locked()
        resident.lock.acquire()
        return resident

    def release(self, resident):
        """Release a resident returned by :meth:`acquire`."""
        resident.lock.release()
        with self._lock:
            resident.active -= 1
            # A resident that was busy at acquire time may now be the
            # eviction victim, so the budget is re-checked on release.
            self._evict_locked()

    def _evict_locked(self):
        while len(self._residents) > self.max_residents:
            victim_key = next(
                (key for key, resident in self._residents.items()
                 if resident.active == 0), None)
            if victim_key is None:
                return  # everything in use; the budget is soft here
            del self._residents[victim_key]
            self._counters["evictions"] += 1

    def stats(self):
        """JSON-safe snapshot: counters plus the current resident set."""
        with self._lock:
            return {
                **self._counters,
                "resident": len(self._residents),
                "max_residents": self.max_residents,
                "scenes": sorted({key[0] for key in self._residents}),
            }

    def __len__(self):
        with self._lock:
            return len(self._residents)
