"""A small fully-associative LRU line cache.

Used for the per-GPC CROP cache (16 KB, 128 B lines — sized by the paper's
§VII-A probe, Figure 20a) and the Z/stencil cache.  Fully-associative LRU is
the right idealisation here: the probe in the paper measures *capacity*
behaviour ("the CROP cache has never held more than 16 KB of data"), and the
real structure's associativity is unpublished.

The cache has one reference and one fast path, with identical results:

* the **reference** (:meth:`LRUCache.access_line` and
  :meth:`LRUCache.access_many`) walks the tag stream one access at a time
  through an ``OrderedDict``;
* the **fast path** (:func:`replay_tag_stream`, which
  :meth:`LRUCache.access_segmented` always takes) computes the whole
  stream's hits, misses, evictions, dirty writebacks and the final LRU state
  in bulk.  For a fully-associative LRU a reference hits iff its stack
  (reuse) distance is ``< n_lines``, so per-access hit/miss flags follow
  from *distinct-count* queries over inter-occurrence windows; everything
  else (eviction and writeback totals, the end-of-stream cache contents in
  exact LRU order with exact dirty bits) is reconstructed combinatorially
  from those flags.  The equivalence is enforced access-for-access by the
  fuzz tests in ``tests/test_lru_vec.py`` and end-to-end by the golden
  flush-engine tests.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

#: Per-call budget for the exact scan rounds, in gathered elements per
#: stream element.  Real CROP/Z streams resolve >99% of accesses through
#: the O(1)-per-access certificates and use a tiny fraction of this; the
#: budget only guards adversarial streams, which fall back to the reference
#: loop (identical results, reference speed).
SCAN_BUDGET_FACTOR = 24


def _scan_rounds(active, prev, window, hit, n_lines, budget, max_cap=None):
    """Resolve ``active`` queries by exact leading-prefix distinct counts.

    The distinct count of the window prefix ``(p, p+c]`` equals
    ``#{j in (p, p+c] : prev[j] <= p}`` (each such ``j`` is its tag's
    first occurrence inside the window) — a plain vectorised count over a
    gathered slice.  ``c`` grows geometrically until the count reaches
    ``n_lines`` (miss) or the prefix covers the whole window (hit), or —
    with ``max_cap`` — until the prefix budget per query is exhausted.
    Decisions are recorded into ``hit``; returns the still-unresolved
    query positions, stopping early (queries intact) once the gather
    budget is spent.
    """
    cap = 2 * n_lines
    spent = 0
    while active.size and (max_cap is None or cap <= max_cap):
        p = prev[active]
        take = np.minimum(cap, window[active])
        total = int(take.sum())
        spent += total
        if spent > budget:
            return active
        owner = np.repeat(np.arange(active.shape[0], dtype=np.int64), take)
        offsets = np.cumsum(take) - take
        local = np.arange(total, dtype=np.int64) - offsets[owner]
        gathered = prev[(p + 1)[owner] + local] <= p[owner]
        zero = np.zeros(1, dtype=np.int64)
        csum = np.concatenate((zero, np.cumsum(gathered)))
        bounds = np.concatenate((zero, np.cumsum(take)))
        distinct = csum[bounds[1:]] - csum[bounds[:-1]]
        is_miss = distinct >= n_lines
        is_hit = (~is_miss) & (take >= window[active])
        hit[active[is_hit]] = True
        active = active[~(is_miss | is_hit)]
        cap *= 4
    return active


def _stack_hits(n_accesses, n_lines, prev):
    """Per-access hit flags of a cold fully-associative LRU replay.

    ``hit[i]`` iff the access would hit, which for LRU is exactly "fewer
    than ``n_lines`` distinct tags occurred since the previous access to
    the same tag" (the stack-distance condition).  ``prev`` is the
    previous-occurrence index per position, derived from the stable tag
    sort the caller shares with its state reconstruction.

    The classification runs in escalating exact tiers:

    1. first occurrences miss; re-references whose whole inter-occurrence
       window holds fewer than ``n_lines`` accesses hit;
    2. a trailing-window certificate: the distinct count of the last
       ``n_lines`` accesses before ``i`` (computed for every position at
       once with a difference array + cumsum) is a lower bound on the
       window's distinct count, so reaching ``n_lines`` certifies a miss —
       this resolves virtually every access of a thrashing stream;
    3. exact scan rounds (:func:`_scan_rounds`) under a gather budget;
    4. if the budget trips — streams dwelling on few tags for long
       stretches, where confirming a hit means walking a huge window — a
       geometric ladder of fixed-size window-distinct arrays: for window
       length w, trailing/leading counts at K <= w are lower bounds
       (subwindows) and their sum at 2K >= w >= K an upper bound (a
       cover), so the dwells certify in O(N) per level instead of O(w)
       per query; a final budgeted scan pass mops up the leftovers.

    Returns ``None`` when even the escalation exceeds its budget
    (adversarial streams); callers then run the reference loop.
    """
    N = int(n_accesses)
    pos = np.arange(N, dtype=np.int64)
    window = pos - prev - 1  # accesses strictly between the occurrences
    hit = np.zeros(N, dtype=bool)
    seen = prev >= 0
    hit[seen & (window < n_lines)] = True
    undecided = np.flatnonzero(seen & (window >= n_lines))
    if not undecided.size:
        return hit

    def window_distinct(K):
        # Exact distinct count of the trailing window [i-K, i-1] for every
        # i: position j is the first in-window occurrence of its tag
        # exactly when prev[j] < i - K, i.e. over the i-interval
        # (max(j, prev[j] + K), j + K] — one difference array + cumsum.
        lo = np.minimum(np.maximum(pos + 1, prev + K + 1), N)
        hi = np.minimum(pos + K + 1, N)
        diff = (np.bincount(lo, minlength=N + 1)
                - np.bincount(hi, minlength=N + 1))
        return np.cumsum(diff[:N])

    counts = window_distinct(n_lines)
    rest = undecided[counts[undecided] < n_lines]
    if not rest.size:
        return hit

    # Short scans first: cheap and decisive for fast-diversifying windows.
    budget = SCAN_BUDGET_FACTOR * N + (n_lines << 4)
    rest = _scan_rounds(rest, prev, window, hit, n_lines, budget,
                        max_cap=4 * n_lines)
    if not rest.size:
        return hit

    # Ladder escalation for scan-resistant (large, low-diversity) windows:
    # the same window-distinct arrays, read as trailing (at i) and leading
    # (at p + K + 1) certificates.  Only the K octaves some survivor's
    # window length actually occupies are computed.
    while rest.size:
        w = window[rest]
        k_exp = int(np.floor(np.log2(max(int(w.min()), n_lines) / n_lines)))
        K = n_lines << max(k_exp, 1)
        if K >= 2 * N:
            break
        counts = window_distinct(K)
        p = prev[rest]
        applicable = K <= w
        trail = counts[rest]
        lead = counts[np.minimum(p + K + 1, N - 1)]
        certain_miss = applicable & (np.maximum(trail, lead) >= n_lines)
        covered = applicable & (2 * K >= w)
        certain_hit = covered & (lead + trail < n_lines)
        hit[rest[certain_hit]] = True
        remaining = rest[~(certain_miss | certain_hit)]
        if remaining.shape[0] == rest.shape[0] and not (
                certain_miss.any() or certain_hit.any()):
            # No progress at this level: the covered-but-uncertified
            # windows need exact scans; larger K cannot help them.
            w_left = window[remaining]
            stuck = remaining[2 * K >= w_left]
            moved = remaining[2 * K < w_left]
            stuck = _scan_rounds(stuck, prev, window, hit, n_lines, budget)
            if stuck.size:
                return None
            rest = moved
        else:
            rest = remaining
    if rest.size:
        rest = _scan_rounds(rest, prev, window, hit, n_lines, budget)
        if rest.size:
            return None
    return hit


def replay_tag_stream(tags, n_lines, warm_items, write):
    """Vectorised exact replay of ``tags`` through a fully-associative LRU.

    Parameters
    ----------
    tags:
        1-D int64 tag stream.
    n_lines:
        Cache capacity in lines.
    warm_items:
        ``[(tag, dirty), ...]`` — the cache contents before the stream, in
        LRU order (least recently used first), as ``OrderedDict.items()``
        yields them.
    write:
        Whether every access writes (dirties) its line.

    Returns ``(hit_flags, counters, final_items)`` where ``hit_flags`` is
    per-access, ``counters`` is ``(hits, misses, evictions, writebacks)``
    and ``final_items`` is the end-of-stream cache contents in LRU order
    with dirty bits — or ``None`` if the stream resisted vectorised
    classification (callers fall back to the reference loop).

    The warm state is handled with a *preamble*: replaying the resident
    tags (LRU order, oldest first) before the stream reproduces the warm
    stack exactly, so stack distances over the combined sequence give the
    same hits and misses a warm scalar replay would.  Counters, evictions
    and the final state then follow combinatorially:

    * the cache content after any prefix is the ``n_lines`` most recently
      used distinct tags, so the final contents are the top tags by last
      occurrence (ascending = LRU order) and
      ``evictions = warm + misses - final_occupancy``;
    * a line instance (one residency) is evicted exactly when the next
      access to its tag misses, or at no next access when the tag is not
      among the final residents — which turns writeback counting into a
      few per-tag reductions over the hit flags and the warm dirty bits.
    """
    if tags.shape[0] == 0:
        return np.zeros(0, dtype=bool), (0, 0, 0, 0), list(warm_items)
    warm_tags = np.fromiter((t for t, _ in warm_items), dtype=np.int64,
                            count=len(warm_items))
    n_warm = warm_tags.shape[0]
    combined = np.concatenate((warm_tags, tags)) if n_warm else tags
    N = combined.shape[0]

    # One stable tag sort serves both the stack-distance classification
    # (previous-occurrence links) and the state reconstruction
    # (factorisation, per-tag last occurrences).
    order = np.argsort(combined, kind="stable")
    sorted_tags = combined[order]
    same = np.empty(N, dtype=bool)
    same[0] = False
    np.equal(sorted_tags[1:], sorted_tags[:-1], out=same[1:])
    prev = np.full(N, -1, dtype=np.int64)
    prev[order[1:][same[1:]]] = order[:-1][same[1:]]

    hit = _stack_hits(N, n_lines, prev)
    if hit is None:
        return None
    stream_hit = hit[n_warm:]
    hits = int(stream_hit.sum())
    misses = int(tags.shape[0] - hits)

    # Factorise off the shared sort: tag ids in sorted-tag-value order.
    seg_id = np.cumsum(~same) - 1
    inverse = np.empty(N, dtype=np.int64)
    inverse[order] = seg_id
    n_tags = int(seg_id[-1]) + 1
    seg_starts = np.flatnonzero(~same)
    seg_last = np.concatenate(
        (seg_starts[1:] - 1, np.asarray([N - 1], dtype=np.int64)))
    uniq = sorted_tags[seg_starts]
    # Positions within a tag's sorted segment ascend (stable sort), so the
    # segment's last element is the tag's last occurrence.
    last_occ = order[seg_last]
    occupancy = min(n_lines, n_tags)
    evictions = n_warm + misses - occupancy

    # Per-tag reductions over the stream.
    stream_inv = inverse[n_warm:]
    miss_count = np.bincount(stream_inv[~stream_hit], minlength=n_tags)
    accessed = np.zeros(n_tags, dtype=bool)
    accessed[stream_inv] = True
    # First stream access per tag: reversed scatter makes the first win.
    first_hit = np.zeros(n_tags, dtype=bool)
    first_hit[stream_inv[::-1]] = stream_hit[::-1]
    warm = np.zeros(n_tags, dtype=bool)
    init_dirty = np.zeros(n_tags, dtype=bool)
    if n_warm:
        warm[inverse[:n_warm]] = True
        init_dirty[inverse[:n_warm]] = [d for _, d in warm_items]

    resident = np.argsort(last_occ, kind="stable")[n_tags - occupancy:]
    final = np.zeros(n_tags, dtype=bool)
    final[resident] = True

    # A warm tag's original residency survives to the end iff the tag never
    # missed during the stream and is still resident.
    warm_evicted = warm & ~(final & (miss_count == 0))
    if write:
        # Every miss-started residency is dirty; a final resident with a
        # stream miss keeps its last one.
        writebacks = misses - int((final & (miss_count >= 1)).sum())
        # An evicted warm residency is dirty if it started dirty or was
        # written by a hit before its eviction (first access hit => the
        # original residency was still live when the write landed).
        warm_dirty = init_dirty | (accessed & first_hit)
        writebacks += int((warm_evicted & warm_dirty).sum())
        final_dirty = accessed | (warm & init_dirty)
    else:
        writebacks = int((warm_evicted & init_dirty).sum())
        # Only an unbroken originally-dirty warm residency stays dirty.
        final_dirty = warm & init_dirty & (miss_count == 0)

    final_items = list(zip(uniq[resident].tolist(),
                           final_dirty[resident].tolist()))
    return stream_hit, (hits, misses, evictions, writebacks), final_items


class LRUCache:
    """Fully-associative LRU cache over line addresses.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    line_bytes:
        Line size; addresses are divided by this to form tags.
    """

    def __init__(self, size_bytes, line_bytes=128):
        if size_bytes <= 0 or line_bytes <= 0:
            raise ValueError("cache size and line size must be positive")
        if size_bytes < line_bytes:
            raise ValueError("cache must hold at least one line")
        self.size_bytes = int(size_bytes)
        self.line_bytes = int(line_bytes)
        self.n_lines = self.size_bytes // self.line_bytes
        self._lines = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def __len__(self):
        return len(self._lines)

    def flush(self):
        """Drop all lines (counts dirty ones as writebacks)."""
        self.writebacks += sum(1 for dirty in self._lines.values() if dirty)
        self._lines.clear()

    def access(self, address, write=False):
        """Access a byte address; returns True on hit.

        A miss inserts the line, evicting LRU if full; dirty evictions are
        counted as writebacks (blending is read-modify-write, so CROP
        accesses are writes).
        """
        tag = int(address) // self.line_bytes
        return self.access_line(tag, write=write)

    def access_line(self, tag, write=False):
        """Access by line tag directly (cheaper when callers precompute)."""
        lines = self._lines
        if tag in lines:
            self.hits += 1
            lines.move_to_end(tag)
            if write:
                lines[tag] = True
            return True
        self.misses += 1
        if len(lines) >= self.n_lines:
            _, dirty = lines.popitem(last=False)
            self.evictions += 1
            if dirty:
                self.writebacks += 1
        lines[tag] = bool(write)
        return False

    def access_many(self, tags, write=False):
        """Access a sequence of line tags; returns the number of misses."""
        before = self.misses
        for tag in tags:
            self.access_line(int(tag), write=write)
        return self.misses - before

    def access_segmented(self, tags, seg_splits, write=False):
        """Replay a segmented tag stream; returns per-segment miss counts.

        ``seg_splits`` is an ascending int array of ``n_segments + 1``
        offsets into ``tags`` (first 0, last ``len(tags)``).  Equivalent to
        one :meth:`access_many` call per segment — LRU state and the
        hit/miss/eviction/writeback counters evolve identically.

        The stream goes through the vectorized exact-LRU replay
        (:func:`replay_tag_stream`), which is bit-identical to the
        reference in every observable (per-segment misses, counters, and
        the cache's final contents in LRU order with dirty bits) and lets
        the batched flush engine replay a whole draw's cache traffic at
        once.  Only a stream that exhausts the exact-scan budget runs the
        reference instead, one :meth:`access_many` call per segment.
        """
        tags = np.asarray(tags, dtype=np.int64)
        bounds = np.asarray(seg_splits, dtype=np.int64)
        if bounds.ndim != 1 or bounds.shape[0] < 1:
            raise ValueError("seg_splits must be a 1-D offset array")
        if (bounds[0] != 0 or bounds[-1] != tags.shape[0]
                or np.any(np.diff(bounds) < 0)):
            raise ValueError("seg_splits must ascend from 0 to len(tags)")
        replay = replay_tag_stream(
            np.ascontiguousarray(tags, dtype=np.int64), self.n_lines,
            list(self._lines.items()), bool(write))
        if replay is None:
            bound_list = bounds.tolist()
            return np.asarray(
                [self.access_many(tags[s:e].tolist(), write=write)
                 for s, e in zip(bound_list[:-1], bound_list[1:])],
                dtype=np.int64)
        stream_hit, counters, final_items = replay
        hits, misses, evictions, writebacks = counters
        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        self.writebacks += writebacks
        self._lines = OrderedDict(final_items)
        miss_cum = np.concatenate(
            (np.zeros(1, dtype=np.int64),
             np.cumsum(~stream_hit, dtype=np.int64)))
        return miss_cum[bounds[1:]] - miss_cum[bounds[:-1]]
