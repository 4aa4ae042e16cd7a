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
  code invalidates stale entries automatically.  Each entry carries a
  checksum; a corrupt or stale entry is deleted and read as a miss.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import threading
import uuid
from dataclasses import asdict
from pathlib import Path

from repro.core.vrpipe import VARIANTS, run_variant
from repro.engine.backends import make_device
from repro.gaussians.preprocess import preprocess
from repro.render.splat_raster import rasterize_splats
from repro.workloads.catalog import build_scene, get_profile

#: Bump when the cached trajectory payload layout changes:
#: :meth:`ResultCache.load` drops entries of any other layout.
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


def trajectory_key(profile, seed, backend, baseline, device_name, n_views):
    """Content key for one trajectory run's disk-cache entry."""
    return content_key({
        "model": model_fingerprint(),
        "profile": asdict(profile),
        "seed": int(seed),
        "backend": backend,
        "baseline": baseline,
        "device": device_name,
        "n_views": int(n_views),
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
    store stays small.  Every payload carries a SHA-256 ``checksum``,
    verified on load; an entry that fails to parse, carries a stale
    schema or fails its checksum is unlinked and read as a miss, so the
    next run re-stores it.  ``store`` writes through a tmp file unique to
    the writer and renames it into place, so concurrent writers of one
    key never share a tmp path and a reader never sees a partial entry.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key):
        return self.root / f"{key}.json"

    def load(self, key):
        """The verified payload dict for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            payload = json.loads(blob)  # bad UTF-8 is a ValueError too
        except ValueError:
            payload = None
        if (isinstance(payload, dict)
                and payload.get("schema") == CACHE_SCHEMA
                and payload.get("checksum") == payload_checksum(payload)):
            return payload
        with contextlib.suppress(OSError):
            path.unlink()
        return None

    def store(self, key, payload):
        """Persist ``payload`` under ``key`` by atomic rename.

        Returns ``True`` on success; on an ``OSError`` the tmp file is
        removed and ``False`` returned, and the caller simply runs
        uncached.
        """
        payload = dict(payload, schema=CACHE_SCHEMA)
        payload["checksum"] = payload_checksum(payload)
        tmp = self.root / f"{key}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            tmp.replace(self._path(key))
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()
            return False
        return True

    def __len__(self):
        return sum(1 for _ in sorted(self.root.glob("*.json")))
