"""Serving-layer suite: admission, deadlines, residency, chaos.

The acceptance bar mirrors the engine's chaos suite, lifted to the
service boundary: under a seeded fault plan arming every injection
point, **every submitted request resolves** (zero lost), every completed
response's aggregates are bit-for-bit equal to a fault-free oracle run
of the same request configuration, and every non-completed outcome is a
typed rejection or failure.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults
from repro.engine.cache import ResultCache
from repro.engine.session import RenderSession
from repro.faults import FaultPlan
from repro.perf.suite import SERVICE_CHAOS_PLAN
from repro.serve import (
    FAILURE_REASONS,
    REJECT_REASONS,
    LoadSpec,
    RenderRequest,
    RenderService,
    SceneResidency,
    run_load,
)

SCENE = "lego"


def make_service(**kw):
    kw.setdefault("workers", 1)
    kw.setdefault("queue_limit", 8)
    return RenderService(**kw)


def submit_running_blocker(svc, views=2):
    """Submit a request and wait until a worker has picked it up.

    Admission counts *queued* requests, so tests that want a known queue
    depth must first let the worker pop the blocker off the queue.
    """
    pending = svc.submit(RenderRequest(SCENE, views=views))
    deadline = time.monotonic() + 10
    while svc.queue_depth() > 0 and time.monotonic() < deadline:
        time.sleep(0.002)
    assert svc.queue_depth() == 0
    return pending


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------

class TestAdmission:
    def test_single_request_completes(self):
        with make_service() as svc:
            resp = svc.request(SCENE, views=1)
        assert resp.ok
        assert resp.aggregates["frames"] == 1
        assert resp.incident_summary["count"] == 0
        assert resp.latency_ms >= resp.queue_ms

    def test_queue_full_is_typed(self):
        with make_service(queue_limit=1, shed_at=False) as svc:
            blocker = submit_running_blocker(svc)
            queued = svc.submit(RenderRequest(SCENE, views=1))
            overflow = svc.submit(RenderRequest(SCENE, views=1))
            resp = overflow.result(timeout=1)
            assert resp.status == "rejected"
            assert resp.reason == "queue_full"
            assert blocker.result(timeout=120).ok
            assert queued.result(timeout=120).ok

    def test_shedding_spares_high_priority(self):
        with make_service(queue_limit=8, shed_at=1) as svc:
            blocker = submit_running_blocker(svc)
            queued = svc.submit(RenderRequest(SCENE, views=1))
            shed = svc.submit(RenderRequest(SCENE, views=1))
            vip = svc.submit(RenderRequest(SCENE, views=1,
                                           priority="high"))
            resp = shed.result(timeout=1)
            assert resp.status == "rejected"
            assert resp.reason == "shedding"
            assert blocker.result(timeout=120).ok
            assert queued.result(timeout=120).ok
            assert vip.result(timeout=120).ok

    def test_nonpositive_deadline_rejected_up_front(self):
        with make_service() as svc:
            resp = svc.submit(
                RenderRequest(SCENE, views=1, deadline_ms=0)).result(1)
        assert resp.status == "rejected"
        assert resp.reason == "deadline_unmeetable"

    def test_ewma_predicts_unmeetable_deadline(self):
        with make_service() as svc:
            assert svc.request(SCENE, views=1).ok  # seeds the EWMA model
            resp = svc.submit(
                RenderRequest(SCENE, views=4, deadline_ms=0.01)).result(1)
        assert resp.status == "rejected"
        assert resp.reason == "deadline_unmeetable"
        assert "estimated" in resp.detail

    def test_deadline_expiring_in_queue_fails_typed(self):
        # No completions yet, so the EWMA model cannot pre-reject; the
        # deadline then expires while the request waits behind the
        # blocker and must surface as a typed failure, never a loss.
        with make_service() as svc:
            blocker = submit_running_blocker(svc)
            doomed = svc.submit(RenderRequest(SCENE, views=1,
                                              deadline_ms=1.0))
            resp = doomed.result(timeout=120)
            assert resp.status == "failed"
            assert resp.reason == "deadline"
            assert blocker.result(timeout=120).ok

    def test_shutdown_rejects_new_submissions(self):
        svc = make_service()
        svc.close()
        resp = svc.submit(RenderRequest(SCENE, views=1)).result(1)
        assert resp.status == "rejected"
        assert resp.reason == "shutdown"

    def test_close_without_drain_resolves_queued_typed(self):
        svc = make_service()
        blocker = submit_running_blocker(svc)
        queued = svc.submit(RenderRequest(SCENE, views=1))
        svc.close(drain=False)
        resp = queued.result(timeout=1)
        assert resp.status == "rejected"
        assert resp.reason == "shutdown"
        assert blocker.result(timeout=120).ok  # in-flight still finishes

    def test_stats_snapshot_shape(self):
        with make_service() as svc:
            svc.request(SCENE, views=1)
            stats = svc.stats()
        assert stats["completed"] == 1
        assert stats["queue_depth"] == 0
        assert stats["latency_p50_ms"] > 0
        assert stats["residency"]["resident"] == 1


# ----------------------------------------------------------------------
# Deadlines cut injected stalls via the engine watchdog
# ----------------------------------------------------------------------

class TestDeadlineWatchdog:
    def test_deadline_budget_cuts_injected_stall(self):
        # A 60 s stall against a 15 s deadline: the admission-side budget
        # becomes the session watchdog, the stall is cut at the next
        # checkpoint, and the frame heals through the ladder — the
        # response arrives inside the deadline with the timeout logged.
        with make_service() as svc:
            with faults.active(
                    FaultPlan.parse("digest:stall,delay=60000,times=1")):
                t0 = time.monotonic()
                resp = svc.request(SCENE, views=1, deadline_ms=15000,
                                   timeout=120)
                elapsed = time.monotonic() - t0
        assert resp.ok
        assert elapsed < 60.0
        assert resp.incident_summary["count"] >= 1
        assert any("WatchdogTimeout" in inc["error"]
                   for inc in resp.incidents)

    def test_strict_request_fails_typed(self):
        with make_service() as svc:
            with faults.active(
                    FaultPlan.parse("digest:raise,times=1")):
                resp = svc.request(SCENE, views=1, strict=True,
                                   timeout=120)
        assert resp.status == "failed"
        assert resp.reason == "strict"


# ----------------------------------------------------------------------
# Scene residency
# ----------------------------------------------------------------------

class TestResidency:
    def test_lru_eviction_of_idle_residents(self):
        residency = SceneResidency(max_residents=1)
        a = residency.acquire(("a",), lambda: object())
        residency.release(a)
        b = residency.acquire(("b",), lambda: object())
        residency.release(b)
        stats = residency.stats()
        assert stats["evictions"] == 1
        assert stats["resident"] == 1
        assert stats["scenes"] == ["b"]

    def test_active_residents_survive_eviction_pressure(self):
        residency = SceneResidency(max_residents=1)
        a = residency.acquire(("a",), lambda: object())
        b = residency.acquire(("b",), lambda: object())  # over budget
        assert len(residency) == 2  # both active: budget is soft
        residency.release(a)
        residency.release(b)
        assert len(residency) == 1  # pressure resolved on release

    def test_hits_reuse_and_touch_mru(self):
        residency = SceneResidency(max_residents=2)
        a = residency.acquire(("a",), lambda: object())
        residency.release(a)
        b = residency.acquire(("b",), lambda: object())
        residency.release(b)
        again = residency.acquire(("a",), lambda: object())  # touch a
        residency.release(again)
        assert again is a
        c = residency.acquire(("c",), lambda: object())  # evicts b, not a
        residency.release(c)
        assert residency.stats()["scenes"] == ["a", "c"]
        assert residency.stats()["hits"] == 1

    def test_per_resident_lock_serialises_same_scene(self):
        residency = SceneResidency(max_residents=2)
        order = []
        first = residency.acquire(("s",), lambda: object())

        def second_user():
            resident = residency.acquire(("s",), lambda: object())
            order.append("second")
            residency.release(resident)

        thread = threading.Thread(target=second_user)
        thread.start()
        time.sleep(0.05)
        order.append("first")
        residency.release(first)
        thread.join(5)
        assert order == ["first", "second"]

    def test_service_reuses_residents_across_requests(self):
        with make_service(max_residents=2) as svc:
            assert svc.request(SCENE, views=1).ok
            assert svc.request(SCENE, views=1).ok
            stats = svc.stats()["residency"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1


# ----------------------------------------------------------------------
# ResultCache: real eviction + stats snapshot
# ----------------------------------------------------------------------

class TestResultCacheEviction:
    def test_lru_sweep_enforces_byte_budget(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        probe = ResultCache(tmp_path)  # no budget: measures entry size
        probe.store("probe", {"value": 0})
        entry_bytes = probe.stats()["bytes"]
        probe.clear()

        cache.max_bytes = int(2.5 * entry_bytes)  # room for two entries
        cache.store("k1", {"value": 1})
        time.sleep(0.02)  # mtime resolution
        cache.store("k2", {"value": 2})
        time.sleep(0.02)
        assert cache.load("k1") is not None  # touch k1: k2 becomes LRU
        time.sleep(0.02)
        cache.store("k3", {"value": 3})
        assert cache.counters["evicted"] == 1
        assert cache.load("k2") is None  # the untouched entry went
        assert cache.load("k1")["value"] == 1
        assert cache.load("k3")["value"] == 3

    def test_stats_snapshot(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("k1", {"value": 1})
        assert cache.load("k1") is not None
        assert cache.load("missing") is None
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(1 / 2)
        assert stats["evicted"] == 0

    def test_unbudgeted_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.store(f"k{i}", {"value": i})
        assert len(cache) == 5
        assert cache.counters["evicted"] == 0


# ----------------------------------------------------------------------
# Incident telemetry satellites
# ----------------------------------------------------------------------

class TestIncidentTelemetry:
    def test_incidents_carry_monotonic_timestamp(self):
        session = RenderSession(SCENE, baseline=None)
        with faults.active(FaultPlan.parse("digest:raise,times=1")):
            result = session.run(n_views=1)
        incidents = result.incidents()
        assert incidents and incidents[0]["ts_ms"] > 0

    def test_incident_summary_reports_healing_ms(self):
        session = RenderSession(SCENE, baseline=None)
        with faults.active(FaultPlan.parse("digest:raise,times=1")):
            result = session.run(n_views=1)
        summary = result.incident_summary()
        assert summary["healing_ms"] > 0

    def test_caller_crop_cache_bypasses_disk_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        session = RenderSession(SCENE, baseline=None, result_cache=cache)
        crop = session.backend.new_crop_cache()
        first = session.run(n_views=1, crop_cache=crop)
        second = session.run(n_views=1, crop_cache=crop)
        assert not first.from_cache and not second.from_cache
        assert len(cache) == 0  # history-dependent runs are never stored


# ----------------------------------------------------------------------
# The chaos soak: no request lost, nothing silently wrong
# ----------------------------------------------------------------------

class TestChaosSoak:
    def test_mixed_fault_soak_loses_nothing_and_stays_bit_exact(
            self, tmp_path):
        spec = LoadSpec(clients=8, requests_per_client=2, scenes=(SCENE,),
                        views_choices=(1, 2), seed=13)
        # Fault-free oracle aggregates per distinct request config.
        oracles = {}
        with faults.active(None):
            for request in spec.all_requests():
                key = request.config_key()
                if key not in oracles:
                    oracles[key] = RenderSession(
                        request.scene, backend=request.backend,
                        baseline=request.baseline,
                        seed=request.seed).run(
                            n_views=request.views).aggregates()
        plan = FaultPlan.parse(SERVICE_CHAOS_PLAN)
        with faults.active(plan):
            with RenderService(workers=2, queue_limit=16,
                               result_cache=ResultCache(tmp_path)) as svc:
                report = run_load(svc, spec)
        kpis = report.kpis()
        assert kpis["submitted"] == 16
        assert kpis["lost"] == 0, "a request was lost under chaos"
        assert kpis["resolved"] == kpis["submitted"]
        by_id = {}
        for response in report.responses:
            assert response.request_id not in by_id, "duplicate resolution"
            by_id[response.request_id] = response
        requests = {f"c{c:02d}-r{p:02d}": request
                    for c in range(spec.clients)
                    for p, request in enumerate(spec.client_requests(c))}
        for request_id, response in by_id.items():
            request = requests[request_id]
            if response.status == "ok":
                assert response.aggregates == oracles[request.config_key()]
            elif response.status == "rejected":
                assert response.reason in REJECT_REASONS
            else:
                assert response.status == "failed"
                assert response.reason in FAILURE_REASONS
