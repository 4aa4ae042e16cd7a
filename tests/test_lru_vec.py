"""Fuzz/property tests: vectorized exact-LRU replay vs the reference loop.

The vectorized replay (:func:`repro.hwmodel.caches.replay_tag_stream`, which
``LRUCache.access_segmented`` always takes) must agree with the reference
``access_line``/``access_many``/``flush`` loop on *every* observable: per-segment miss
counts, the hit/miss/eviction/writeback counters, and the final cache
contents in exact LRU order with exact dirty bits — including warm-cache
handoff between two streams.  Random tag streams across several regimes
(uniform, cyclic, sorted, heavy-tailed, dwelling) exercise the certificate
tiers and the exact scan rounds alike.
"""

import zlib

import numpy as np
import pytest

from repro.hwmodel import caches
from repro.hwmodel.caches import LRUCache, replay_tag_stream


def style_seed(style, salt=0):
    """Process-independent fuzz seed (``hash()`` varies per interpreter)."""
    return zlib.crc32(f"{style}:{salt}".encode()) & 0x7FFFFFFF


def random_stream(rng, style, n, universe):
    if style == "uniform":
        return rng.integers(0, universe, n).astype(np.int64)
    if style == "cyclic":
        jitter = rng.integers(0, 2, n)
        return ((np.arange(n) % universe) + jitter).astype(np.int64)
    if style == "sorted":
        return np.sort(rng.integers(0, universe, n)).astype(np.int64)
    if style == "pareto":
        return np.minimum((rng.pareto(0.7, n) * 2).astype(np.int64), universe)
    if style == "dwell":
        # Long dwells on few tags interrupted by sweeps: big reuse windows
        # with low distinct counts — the regime that defeats the cheap
        # certificates and forces the exact scan rounds.
        chunks = []
        remaining = n
        while remaining > 0:
            if rng.random() < 0.5:
                k = int(rng.integers(1, 4))
                dwell_tags = rng.integers(0, universe, k)
                reps = int(rng.integers(1, remaining + 1))
                chunks.append(rng.choice(dwell_tags, size=reps))
            else:
                reps = int(rng.integers(1, min(remaining, universe) + 1))
                chunks.append(np.arange(reps) % universe)
            remaining -= len(chunks[-1])
        return np.concatenate(chunks)[:n].astype(np.int64)
    raise AssertionError(style)


def random_splits(rng, n):
    n_segments = int(rng.integers(1, 8))
    if n == 0:
        return np.zeros(n_segments + 1, dtype=np.int64)
    cuts = np.sort(rng.integers(0, n + 1, n_segments - 1))
    return np.concatenate(([0], cuts, [n])).astype(np.int64)


def scalar_replay(cache, tags, splits, write):
    out = []
    for s, e in zip(splits[:-1], splits[1:]):
        out.append(cache.access_many(tags[s:e], write=write))
    return np.asarray(out, dtype=np.int64)


def assert_caches_equal(vec, ref):
    assert vec.hits == ref.hits
    assert vec.misses == ref.misses
    assert vec.evictions == ref.evictions
    assert vec.writebacks == ref.writebacks
    assert list(vec._lines.items()) == list(ref._lines.items())


STYLES = ("uniform", "cyclic", "sorted", "pareto", "dwell")


@pytest.fixture
def vector_replays(monkeypatch):
    """Count the vectorized replays ``access_segmented`` completed, so a
    fuzz test can prove it compared the vector engine (not the reference
    fallback) against the oracle."""
    completed = []
    real = caches.replay_tag_stream

    def counted(*args, **kwargs):
        replay = real(*args, **kwargs)
        if replay is not None:
            completed.append(1)
        return replay

    monkeypatch.setattr(caches, "replay_tag_stream", counted)
    return completed


class TestVectorizedReplayFuzz:
    @pytest.mark.parametrize("style", STYLES)
    def test_cold_replay_matches_scalar(self, style, vector_replays):
        rng = np.random.default_rng(style_seed(style))
        for trial in range(26):
            n_lines = int(rng.integers(1, 40))
            universe = int(rng.integers(1, 90))
            # The last trial is a 10-access stream: short streams take the
            # vectorized replay too.
            n = 10 if trial == 25 else int(rng.integers(0, 1500))
            write = bool(rng.integers(0, 2))
            tags = random_stream(rng, style, n, universe)
            splits = random_splits(rng, n)
            vec = LRUCache(n_lines * 64, 64)
            ref = LRUCache(n_lines * 64, 64)
            got = vec.access_segmented(tags, splits, write=write)
            want = scalar_replay(ref, tags, splits, write)
            assert got.tolist() == want.tolist(), (style, trial)
            assert_caches_equal(vec, ref)
        assert len(vector_replays) == 26

    @pytest.mark.parametrize("style", STYLES)
    def test_warm_handoff_between_two_streams(self, style, vector_replays):
        """Replay stream A, hand the warm cache to stream B: the second
        vectorized replay must start from the exact warm state (LRU order
        and dirty bits) and still match the scalar oracle, and a final
        flush must count the same dirty writebacks."""
        rng = np.random.default_rng(style_seed(style, 1))
        for trial in range(15):
            n_lines = int(rng.integers(1, 24))
            universe = int(rng.integers(1, 60))
            vec = LRUCache(n_lines * 64, 64)
            ref = LRUCache(n_lines * 64, 64)
            for phase in range(2):
                n = int(rng.integers(0, 900))
                write = bool(rng.integers(0, 2))
                tags = random_stream(rng, style, n, universe)
                splits = random_splits(rng, n)
                got = vec.access_segmented(tags, splits, write=write)
                want = scalar_replay(ref, tags, splits, write)
                assert got.tolist() == want.tolist(), (style, trial, phase)
                assert_caches_equal(vec, ref)
            vec.flush()
            ref.flush()
            assert vec.writebacks == ref.writebacks
        assert len(vector_replays) == 30

    def test_mixed_scalar_then_vector(self, vector_replays):
        """Scalar accesses may interleave with vectorized replays (the
        pipeline mixes access_line/access_many with access_segmented)."""
        rng = np.random.default_rng(99)
        vec = LRUCache(8 * 64, 64)
        ref = LRUCache(8 * 64, 64)
        for round_ in range(6):
            loose = rng.integers(0, 30, int(rng.integers(0, 40)))
            for t in loose.tolist():
                w = bool(rng.integers(0, 2))
                assert vec.access_line(t, write=w) == ref.access_line(t, write=w)
            tags = random_stream(rng, "uniform", 300, 25)
            splits = random_splits(rng, 300)
            got = vec.access_segmented(tags, splits, write=True)
            want = scalar_replay(ref, tags, splits, True)
            assert got.tolist() == want.tolist()
            assert_caches_equal(vec, ref)
        assert len(vector_replays) == 6


class TestEngineDispatch:
    def test_budget_exhaustion_falls_back_to_scalar(self, monkeypatch):
        """With a zero scan budget the vector engine bails; results must
        still be exact via the reference fallback (``access_many``)."""
        monkeypatch.setattr(caches, "SCAN_BUDGET_FACTOR", -10 ** 9)
        rng = np.random.default_rng(5)
        tags = random_stream(rng, "dwell", 800, 12)
        splits = random_splits(rng, 800)
        vec = LRUCache(4 * 64, 64)
        ref = LRUCache(4 * 64, 64)
        got = vec.access_segmented(tags, splits, write=True)
        want = scalar_replay(ref, tags, splits, True)
        assert got.tolist() == want.tolist()
        assert_caches_equal(vec, ref)

    def test_replay_tag_stream_empty_warm(self):
        hit, counters, items = replay_tag_stream(
            np.asarray([1, 2, 1, 3], dtype=np.int64), 2, [], True)
        assert hit.tolist() == [False, False, True, False]
        assert counters == (1, 3, 1, 1)
        assert items == [(1, True), (3, True)]
