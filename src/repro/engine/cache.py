"""Engine result caching: in-process memoisation plus an on-disk layer.

This module owns the caches that :mod:`repro.experiments.runner` used to
keep as module-level dicts.  Two layers:

* a bounded **in-process memo**: scene clouds, the most recent
  scenario's preprocess and fragment stream (one slot), and per-variant
  draw results, which keep no stream.  Figures loop scenes outermost, so
  a figure's calls for one scene share its stream and digestion;
* a **content-keyed disk cache** (:class:`ResultCache`) for trajectory
  results: the key hashes everything that determines the numbers (scene
  profile contents, seed, backend/baseline specs, device, view count and
  a fingerprint of the package sources), so editing a scene or any model
  code invalidates stale entries automatically.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
import uuid
from dataclasses import asdict
from pathlib import Path

from repro.core.vrpipe import VARIANTS, run_variant
from repro.engine.backends import make_device
from repro.gaussians.preprocess import preprocess
from repro.render.splat_raster import rasterize_splats
from repro.workloads.catalog import build_scene, get_profile

#: Bump when the cached trajectory payload layout changes:
#: :meth:`ResultCache.load` quarantines entries of any other layout.
#: Schema 2 added the per-payload integrity checksum; schema 3 dropped
#: the incidents' monotonic timestamp; schema 4 dropped the per-frame
#: seed; schema 5 dropped the per-frame ``incidents`` list.
CACHE_SCHEMA = 5

_CLOUD_MEMO = {}
#: The most recent scenario only: ``{(name, seed): (pre, stream)}``.
_SCENARIO_SLOT = {}
_DRAW_MEMO = {}

#: Guards the memo dicts: the memoised builders are reachable from
#: run_frames worker callables, so first-build and lookup must be
#: atomic.  Reentrant because get_draw -> get_scenario -> get_cloud
#: nest under the same lock.
_MEMO_LOCK = threading.RLock()


def get_cloud(name, seed=0):
    """Build (or fetch) the Gaussian cloud for a catalogued scene."""
    key = (name, seed)
    with _MEMO_LOCK:
        if key not in _CLOUD_MEMO:
            _CLOUD_MEMO[key] = build_scene(get_profile(name), seed=seed)
        return _CLOUD_MEMO[key]


def get_scenario(name, seed=0):
    """``(pre, stream)`` for a scene's default viewpoint.

    Only the most recent scenario is kept: a new one evicts the old
    before it is built, so the memo never holds two streams.
    """
    key = (name, seed)
    with _MEMO_LOCK:
        if key not in _SCENARIO_SLOT:
            _SCENARIO_SLOT.clear()
            camera = get_profile(name).camera()
            pre = preprocess(get_cloud(name, seed), camera)
            stream = rasterize_splats(pre.splats, camera.width, camera.height)
            _SCENARIO_SLOT[key] = (pre, stream)
        return _SCENARIO_SLOT[key]


def get_draw(name, variant, device_name="orin", seed=0):
    """Cached pipeline simulation of ``variant`` on a scene."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    key = (name, variant, device_name, seed)
    with _MEMO_LOCK:
        if key not in _DRAW_MEMO:
            stream = get_scenario(name, seed)[1]
            _DRAW_MEMO[key] = run_variant(stream, variant,
                                          make_device(device_name))
        return _DRAW_MEMO[key]


def clear_cache():
    """Drop all memoised clouds, the scenario slot and draws."""
    with _MEMO_LOCK:
        _CLOUD_MEMO.clear()
        _SCENARIO_SLOT.clear()
        _DRAW_MEMO.clear()


def content_key(payload):
    """Stable hex digest of a JSON-serialisable payload dict."""
    blob = json.dumps(payload, sort_keys=True, default=_jsonify)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def model_fingerprint():
    """sha256 over the package's sorted ``repro/**/*.py`` sources.

    Computed once per process.  Keying trajectories on it means any edit
    to the package sources, the model included, misses every entry stored
    before the edit, so the disk cache never serves numbers from an older
    model.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def trajectory_key(profile, seed, backend, baseline, device_name, n_views,
                   warm_crop_cache):
    """Content key for one trajectory run's disk-cache entry."""
    return content_key({
        "model": model_fingerprint(),
        "profile": asdict(profile),
        "seed": int(seed),
        "backend": backend,
        "baseline": baseline,
        "device": device_name,
        "n_views": int(n_views),
        "warm_crop_cache": bool(warm_crop_cache),
    })


def _jsonify(obj):
    if isinstance(obj, tuple):
        return list(obj)
    return str(obj)


def payload_checksum(payload):
    """Integrity digest of a cache payload (its own checksum excluded)."""
    blob = json.dumps({k: v for k, v in payload.items() if k != "checksum"},
                      sort_keys=True, default=_jsonify)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk JSON store for trajectory results, keyed by content hash.

    Entries hold the numeric per-frame records and run metadata — not
    images — so a hit reproduces every statistic bit-for-bit while the
    store stays small.

    Hardening (writers that share one directory, and a disk that can fail):

    * every payload carries a SHA-256 ``checksum``, verified on load;
    * entries that fail to parse, carry a stale schema, or fail their
      checksum are **quarantined** — moved to ``quarantine/`` with the
      failure reason in the filename — instead of silently re-missing
      forever (and silently inflating ``len(cache)``);
    * ``store`` writes through a unique per-writer tmp file (no shared
      tmp-path race between concurrent writers of one key) and retries
      transient ``OSError`` with exponential backoff, degrading to
      uncached execution (``False``) when the disk stays unhappy;
    * ``counters`` tracks hits / misses / quarantines / store retries
      and failures, and :meth:`stats` snapshots them
      together with the current entry count, on-disk bytes and hit rate.
    """

    #: Attempts per :meth:`store` before degrading to uncached execution.
    MAX_STORE_ATTEMPTS = 3
    #: Base backoff between store attempts, in seconds (doubles per retry).
    BACKOFF_S = 0.01

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.counters = {"hits": 0, "misses": 0, "quarantined": 0,
                         "store_retries": 0, "store_failures": 0}

    def _path(self, key):
        return self.root / f"{key}.json"

    @property
    def quarantine_dir(self):
        return self.root / "quarantine"

    def _quarantine(self, path, reason):
        """Move a bad entry aside (reason-tagged) so it can't re-miss."""
        qdir = self.quarantine_dir
        try:
            qdir.mkdir(exist_ok=True)
            path.replace(qdir / f"{path.stem}.{reason}.json")
        except OSError:
            try:
                path.unlink()
            except OSError:
                return  # Unreachable entry: leave it for clear().
        self.counters["quarantined"] += 1

    def load(self, key):
        """The verified payload dict for ``key``, or ``None`` on a miss.

        Unparseable, schema-stale and checksum-failing entries are
        quarantined (see class docstring) and read as misses.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            self.counters["misses"] += 1
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except ValueError:
            self._quarantine(path, "corrupt")
            self.counters["misses"] += 1
            return None
        if payload.get("schema") != CACHE_SCHEMA:
            self._quarantine(path, "schema")
            self.counters["misses"] += 1
            return None
        if payload.get("checksum") != payload_checksum(payload):
            self._quarantine(path, "checksum")
            self.counters["misses"] += 1
            return None
        self.counters["hits"] += 1
        return payload

    def store(self, key, payload):
        """Persist ``payload`` under ``key`` (atomic rename).

        Writes through a tmp file unique to this writer, retries
        transient ``OSError`` with exponential backoff, and returns
        ``True`` on success / ``False`` after giving up — callers then
        simply run uncached.
        """
        payload = dict(payload, schema=CACHE_SCHEMA)
        payload["checksum"] = payload_checksum(payload)
        blob = json.dumps(payload)
        path = self._path(key)
        for attempt in range(self.MAX_STORE_ATTEMPTS):
            tmp = self.root / f"{key}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(blob)
                tmp.replace(path)
                return True
            except OSError:
                try:
                    tmp.unlink()
                except OSError:
                    pass
                if attempt + 1 < self.MAX_STORE_ATTEMPTS:
                    self.counters["store_retries"] += 1
                    time.sleep(self.BACKOFF_S * (2 ** attempt))
        self.counters["store_failures"] += 1
        return False

    def _entry_sizes(self):
        """Byte size of every stored entry (best effort)."""
        sizes = []
        for path in sorted(self.root.glob("*.json")):
            try:
                sizes.append(path.stat().st_size)
            except OSError:
                continue
        return sizes

    def stats(self):
        """JSON-safe snapshot: counters + current footprint + hit rate."""
        sizes = self._entry_sizes()
        lookups = self.counters["hits"] + self.counters["misses"]
        return {
            **self.counters,
            "entries": len(sizes),
            "bytes": int(sum(sizes)),
            "hit_rate": (self.counters["hits"] / lookups if lookups else 0.0),
        }

    def clear(self):
        """Delete every stored entry, leftover tmp file and quarantined
        entry."""
        for pattern in ("*.json", "*.tmp"):
            for path in sorted(self.root.glob(pattern)):
                path.unlink()
        qdir = self.quarantine_dir
        if qdir.is_dir():
            for path in sorted(qdir.glob("*.json")):
                path.unlink()

    def __len__(self):
        return sum(1 for _ in sorted(self.root.glob("*.json")))
