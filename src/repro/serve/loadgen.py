"""Seeded closed-loop load generator for :class:`RenderService`.

``N`` synthetic client threads each submit a deterministic, seeded mix
of trajectory requests and wait for every response (closed loop: one
request in flight per client, the realistic regime for a single-box
service).  Per-client request streams derive from
``random.Random(f"{seed}:{client}")``, so a fixed :class:`LoadSpec`
replays the exact same request mix regardless of scheduling — the chaos
tests and the bench suite both rely on that.

The result is a :class:`LoadReport`: every response (none may be
missing — a lost request is the one unacceptable outcome), the KPI
rollup (:meth:`LoadReport.kpis`: latency percentiles, throughput,
rejection/cache-hit rates, incident counts), and the terminal service
stats snapshot.
"""

from __future__ import annotations

import random
import threading
import time

import numpy as np

from repro.serve.request import RenderRequest

#: Closed-loop clients hard-stop waiting for any single response after
#: this many seconds — a tripped timeout means the service *lost* a
#: request, which the report surfaces as ``lost > 0`` instead of
#: hanging the harness forever.
CLIENT_TIMEOUT_S = 600.0


class LoadSpec:
    """Deterministic description of one load-generation run.

    ``clients`` closed-loop clients submit ``requests_per_client``
    requests each, drawn per client from ``scenes`` x ``backends`` x
    ``views_choices`` with seeded RNG.  ``deadline_ms`` (optional)
    attaches a deadline to every request; ``warm_fraction`` /
    ``high_fraction`` are per-request probabilities of opting into a
    warm CROP cache or high priority.  ``think_ms`` sleeps between a
    client's requests (0 = hammer).
    """

    def __init__(self, clients=8, requests_per_client=3, scenes=("lego",),
                 backends=("hw:het+qm",), views_choices=(1, 2), seed=0,
                 deadline_ms=None, warm_fraction=0.0, high_fraction=0.0,
                 think_ms=0.0):
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if requests_per_client < 1:
            raise ValueError("requests_per_client must be >= 1, "
                             f"got {requests_per_client}")
        self.clients = int(clients)
        self.requests_per_client = int(requests_per_client)
        self.scenes = tuple(scenes)
        self.backends = tuple(backends)
        self.views_choices = tuple(int(v) for v in views_choices)
        self.seed = int(seed)
        self.deadline_ms = deadline_ms
        self.warm_fraction = float(warm_fraction)
        self.high_fraction = float(high_fraction)
        self.think_ms = float(think_ms)

    def client_requests(self, client):
        """The deterministic request list of one client (no service state).

        Exposed separately from :func:`run_load` so tests can enumerate
        the exact mix a run will submit (e.g. to precompute bit-exact
        oracles per request configuration).
        """
        rng = random.Random(f"{self.seed}:{client}")
        requests = []
        for _ in range(self.requests_per_client):
            requests.append(RenderRequest(
                scene=rng.choice(self.scenes),
                backend=rng.choice(self.backends),
                views=rng.choice(self.views_choices),
                seed=self.seed,
                deadline_ms=self.deadline_ms,
                priority=("high" if rng.random() < self.high_fraction
                          else "normal"),
                warm_crop_cache=rng.random() < self.warm_fraction))
        return requests

    def all_requests(self):
        """Every request of every client, in (client, position) order."""
        return [request for client in range(self.clients)
                for request in self.client_requests(client)]


class LoadReport:
    """Outcome of one :func:`run_load`: responses + KPI rollup."""

    def __init__(self, spec, responses, elapsed_s, service_stats,
                 submitted):
        self.spec = spec
        self.responses = list(responses)
        self.elapsed_s = float(elapsed_s)
        self.service_stats = dict(service_stats)
        self.submitted = int(submitted)

    def kpis(self):
        """The serving KPIs as a flat JSON-safe dict.

        ``lost`` counts submitted requests that never produced a typed
        response — the invariant the chaos suite pins to zero.
        Percentiles cover completed requests only (rejections resolve in
        microseconds and would flatter the latency story).
        """
        completed = [r for r in self.responses if r.status == "ok"]
        rejected = [r for r in self.responses if r.status == "rejected"]
        failed = [r for r in self.responses if r.status == "failed"]
        kpis = {
            "submitted": self.submitted,
            "resolved": len(self.responses),
            "lost": self.submitted - len(self.responses),
            "completed": len(completed),
            "rejected": len(rejected),
            "failed": len(failed),
            "rejection_rate": (len(rejected) / self.submitted
                               if self.submitted else 0.0),
            "throughput_rps": (len(completed) / self.elapsed_s
                               if self.elapsed_s > 0 else 0.0),
            "elapsed_s": self.elapsed_s,
            "incidents": sum(r.incident_summary.get("count", 0)
                             for r in completed),
            "healing_ms": sum(r.incident_summary.get("healing_ms", 0.0)
                              for r in completed),
            "from_cache": sum(1 for r in completed if r.from_cache),
            "cache_hit_rate": (sum(1 for r in completed if r.from_cache)
                               / len(completed) if completed else 0.0),
        }
        if completed:
            latencies = np.asarray([r.latency_ms for r in completed],
                                   dtype=np.float64)
            kpis["latency_p50_ms"] = float(np.percentile(latencies, 50))
            kpis["latency_p95_ms"] = float(np.percentile(latencies, 95))
            kpis["latency_p99_ms"] = float(np.percentile(latencies, 99))
            kpis["latency_mean_ms"] = float(latencies.mean())
        reasons = {}
        for response in rejected:
            reasons[response.reason] = reasons.get(response.reason, 0) + 1
        for response in failed:
            key = f"failed:{response.reason}"
            reasons[key] = reasons.get(key, 0) + 1
        kpis["by_reason"] = reasons
        return kpis


def run_load(service, spec):
    """Drive ``service`` with ``spec``'s clients; returns a :class:`LoadReport`.

    Each client thread submits its deterministic request mix closed-loop
    (awaiting each response before the next submission).  The report
    collects every typed response; a response missing after
    :data:`CLIENT_TIMEOUT_S` counts as lost rather than deadlocking the
    harness.
    """
    responses = []
    responses_lock = threading.Lock()
    submitted = [0]

    def client_loop(client):
        for position, request in enumerate(spec.client_requests(client)):
            request.request_id = f"c{client:02d}-r{position:02d}"
            if spec.think_ms > 0 and position > 0:
                time.sleep(spec.think_ms / 1e3)
            with responses_lock:
                submitted[0] += 1
            pending = service.submit(request)
            try:
                response = pending.result(timeout=CLIENT_TIMEOUT_S)
            except TimeoutError:
                continue  # lost: surfaces in the report, not as a hang
            with responses_lock:
                responses.append(response)

    threads = [threading.Thread(target=client_loop, args=(client,),
                                name=f"loadgen-{client}", daemon=True)
               for client in range(spec.clients)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed_s = time.monotonic() - started
    return LoadReport(spec, responses, elapsed_s, service.stats(),
                      submitted[0])
