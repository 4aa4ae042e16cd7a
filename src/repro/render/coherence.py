"""FrameCoherence: cross-frame digestion state for trajectory rendering.

Orbit/trajectory frames are highly coherent: most scanlines of a frame are
*identical* to the previous frame's (same row intervals, same fragment
alphas), yet the digestion pipeline recomputed every per-frame structure —
pixel grouping, arrival-alpha chain, quad chunklets — from scratch.  This
module carries digestion state across :class:`~repro.engine.session.
RenderSession` frames and reuses it wherever the new frame's content
provably matches.

Granularity and exactness
-------------------------
The unit of reuse is the **scanline**.  The pixel-sorted digestion domain
is scanline-major (pixel id = ``y * width + x``), so every sorted-domain
cache — ``pix_sorted``, ``arrival_sorted``, ``alpha_eff_sorted``, the
pixel order — decomposes into contiguous per-scanline blocks, and the
arrival chain (:func:`~repro.render.fragstream.arrival_chain_sliced`)
computes each scanline's block as a pure function of that scanline's
fragment content.  Classification is **exact array comparison** of the
FrameIR row intervals and the fragment alpha bit patterns — never hashes,
which could collide and silently break bit-identity.  Three outcomes:

* **full hit** — every row and every alpha identical: the previous
  frame's caches (and, when the primitive boundaries also match, its
  FrameIR quad view) are adopted wholesale;
* **partial hit** — clean scanlines copy their cached blocks to their
  new offsets; dirty scanlines (changed, shifted or new rows) recompute
  through the same chain the full path uses, on the dirty subset only;
* **full recompute** — low coherence (or no usable previous frame): the
  always-available oracle runs, and its results are captured for the
  next frame.

All three produce bit-identical caches, pinned by the fuzz tests in
``tests/test_coherence.py``.

State lifecycle
---------------
A captured frame's state holds the frame's stream while the frame is
being digested, then is *sealed* when the next frame begins: it keeps
the plain arrays the serving paths read (see :class:`_FrameState`) and
drops the stream.  The library is an LRU bounded by the summed bytes of
its sealed states (``max_bytes``), not by a state count.

The ``coherence`` knob
----------------------
``"auto"`` and ``"incremental"`` enable the carrier (they differ only in
strictness elsewhere: sessions running parallel frames silently drop the
carrier under ``"auto"`` but refuse under ``"incremental"``), ``"off"``
disables it entirely.  The process default is ``"auto"``, overridable via
the ``REPRO_COHERENCE`` environment variable; CI runs the golden flush
and coherence suites under both ``incremental`` and ``off``.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter

import numpy as np

from repro import faults, knobs
from repro.knobs import COHERENCE_MODES  # re-exported; declared centrally
from repro.render.fragstream import arrival_chain_sliced
from repro.utils.arrays import ndarray_bytes, segment_boundaries

#: Default byte budget of a carrier's state library.  Measured sealed
#: states hold about 41 bytes per fragment on the HET+QM path and 27 on
#: the CUDA path, so an 8-view orbit library (``RenderSession.run``'s
#: default sweep, and ``repro serve``'s loop) takes about 410 MiB on
#: lego (hw:het+qm, 1.1-1.4M fragments per view), 350 MiB on garden
#: (cuda+et, 1.6-1.9M) and 540 MiB on garden (hw:het+qm).  The budget
#: keeps any of these loops fully resident.
DEFAULT_MAX_BYTES = 640 * 2**20


def resolve_coherence(mode=None):
    """Normalise a ``coherence`` knob value (default ``$REPRO_COHERENCE``)."""
    if mode is None:
        mode = knobs.env("REPRO_COHERENCE")
    if mode not in COHERENCE_MODES:
        raise ValueError(
            f"unknown coherence mode {mode!r}; choose from {COHERENCE_MODES}")
    return mode


def _ragged_expand(base, lens):
    """``concatenate([base[i] + arange(lens[i]) for i])`` without the loop."""
    if lens.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    total = int(lens.sum())
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return (np.arange(total, dtype=np.int64)
            + np.repeat(base.astype(np.int64) - offsets, lens))


def _exclusive_cumsum(values):
    out = np.empty(values.shape[0] + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(values, out=out[1:])
    return out


class _RowGroups:
    """Scanline-grouped view of a FrameIR's rows (lazy per-frame aux).

    ``order_rows`` sorts rows by scanline (stable, so rows of one scanline
    keep their emission order); ``row_counts``/``frag_counts`` are per
    scanline over the full height; ``frag_offsets`` are the scanline block
    offsets of the pixel-sorted domain (which is scanline-major).
    """

    def __init__(self, ir, height):
        row_y = ir.row_y
        self.order_rows = np.argsort(row_y, kind="stable")
        self.row_counts = np.bincount(row_y, minlength=height)
        self.lengths = (ir.row_xhi.astype(np.int64) - ir.row_xlo) + 1
        self.frag_counts = np.bincount(
            row_y, weights=self.lengths, minlength=height).astype(np.int64)
        self.row_offsets = _exclusive_cumsum(self.row_counts)
        self.frag_offsets = _exclusive_cumsum(self.frag_counts)


class _FrameState:
    """One digested frame of the state library.

    A state is *live* while its frame is being digested: it holds the
    frame's stream, whose lazy caches keep filling in after capture
    (termination masks, the accumulated-alpha map, the quad view).  The
    carrier seals it (:meth:`seal`) at the next :meth:`FrameCoherence.
    begin_frame`, once the frame is finished.  A sealed state holds
    plain arrays: the FrameIR (row arrays plus the shared quad view),
    the alpha bits and the sorted-domain caches the serving paths read.
    The stream goes, and with it the per-fragment ``x``/``y``/
    ``prim_ids``, the fragment-order caches and the ``QuadTable``
    wrappers.
    """

    __slots__ = ("stream", "frameir", "alphas", "n", "height", "cache",
                 "_rowgroups")

    #: Stream caches a sealed state keeps, read by the full-hit install
    #: and the partial-hit splice.  ``pix_sorted`` is not kept: it is one
    #: ``np.repeat`` of the non-empty pixel list, re-derived on adoption.
    SEALED_KEYS = frozenset((
        "pixel_order", "pixel_starts", "scanline_bounds",
        "alpha_eff_sorted", "arrival_sorted", "accumulated_alpha",
    ))

    #: Threshold-keyed cache families a sealed state keeps (termination
    #: masks and the per-pixel termination rank; the per-fragment
    #: ``local`` rank array is re-derived by the stream on demand).
    SEALED_FAMILIES = frozenset((
        "et_survivor", "unterminated", "het_blended", "term_rank",
    ))

    def __init__(self, stream):
        self.stream = stream
        # Content as digested: a later rebind of ``stream.alphas`` must
        # not change what this state verifies against.
        self.frameir = stream.frameir
        self.alphas = stream.alphas
        self.n = len(stream)
        self.height = stream.height
        self.cache = None
        self._rowgroups = None

    def rowgroups(self):
        if self._rowgroups is None:
            self._rowgroups = _RowGroups(self.frameir, self.height)
        return self._rowgroups

    def seal(self):
        """Keep the arrays the serving paths read; drop the stream."""
        stream = self.stream
        if stream is None:
            return
        cache = {key: value for key, value in stream._cache.items()
                 if key in self.SEALED_KEYS
                 or (isinstance(key, tuple)
                     and key[0] in self.SEALED_FAMILIES)}
        order = cache.get("pixel_order")
        if order is not None and self.n <= np.iinfo(np.int32).max:
            # Widened back to int64 on adoption.
            cache["pixel_order"] = order.astype(np.int32)
        for value in cache.values():
            value.flags.writeable = False
        self.cache = cache
        self.stream = None

    @property
    def nbytes(self):
        """Bytes of the arrays the state holds (the stream's excluded)."""
        return ndarray_bytes(self.frameir, self.alphas, self.cache,
                             self._rowgroups)


class FrameCoherence:
    """Carrier of cross-frame digestion state (see module docstring).

    One carrier serves one serial frame sequence: call :meth:`begin_frame`
    with each new frame's stream *before* digestion starts, and the
    stream's lazy caches will consult the carrier automatically.
    """

    #: Fall back to a full recompute when clean scanlines cover less than
    #: this fraction of the new frame's fragments — below it, the
    #: classification and splice overhead outweighs the reuse (and both
    #: paths are bit-identical, so the fallback is free).
    MIN_CLEAN_FRACTION = 0.25

    def __init__(self, mode=None, max_bytes=DEFAULT_MAX_BYTES):
        self.mode = resolve_coherence(mode)
        self.max_bytes = int(max_bytes)
        #: Library of digested frames keyed by content hash, LRU-bounded
        #: by the summed bytes of its sealed states.  Trajectory serving
        #: loops over a fixed set of viewpoints, so a revisited frame keys
        #: straight back to its digested state even when other frames
        #: rendered in between.
        self._states = OrderedDict()
        self._pows = None
        self._prev = None
        self._current = None
        self._key = None
        self._hit = None
        self._full_hit = False
        self._acc_patch = None
        self._partial_state = None
        #: Outcome counters (frames served per path), for observability.
        self.stats = {"full_hits": 0, "partial_hits": 0, "full_recomputes": 0}

    def _content_key(self, stream):
        """Position-weighted 64-bit hash of a frame's row structure, plus
        its sizes.  The alphas are left out: rows are ~20x fewer than
        fragments, and the hash only *selects* a library candidate —
        :meth:`_verify` then compares rows and alpha bits exactly before
        any reuse, so a collision (two frames with identical rows) can
        cost a missed hit, never bit-identity.
        """
        ir = stream.frameir
        pows = self._pows
        if pows is None or pows.shape[0] < ir.n_rows:
            size = max(ir.n_rows, 1 << 16)
            pows = np.multiply.accumulate(
                np.full(size, np.uint64(0x9E3779B97F4A7C15)))
            self._pows = pows
        mix = (ir.row_y.astype(np.uint64)
               + (ir.row_xlo.astype(np.uint64) << np.uint64(16))
               + (ir.row_xhi.astype(np.uint64) << np.uint64(32))
               + ir.row_prim.astype(np.uint64) * np.uint64(0x100000001B3))
        h_rows = int((mix * pows[:ir.n_rows]).sum())
        return (stream.width, stream.height, len(stream), ir.n_rows, h_rows)

    @staticmethod
    def _verify(stream, cand):
        """Exact equality of a frame's content with a library state's:
        row arrays (including primitive boundaries) and raw alpha bit
        patterns.  Identical intervals imply identical fragment runs
        (``row_fstart`` is the running sum of interval lengths) and
        identical per-fragment ``(x, y)``, so equality here makes every
        digestion cache equal."""
        ir, pir = stream.frameir, cand.frameir
        return (np.array_equal(ir.row_y, pir.row_y)
                and np.array_equal(ir.row_xlo, pir.row_xlo)
                and np.array_equal(ir.row_xhi, pir.row_xhi)
                and np.array_equal(ir.row_prim, pir.row_prim)
                and np.array_equal(stream.alphas.view(np.uint32),
                                   cand.alphas.view(np.uint32)))

    def snapshot(self):
        """Rewindable copy of the carrier's cross-frame state.

        Shallow per-entry copies are sound: a :class:`_FrameState`'s
        content never changes after capture (its arrays are frozen
        read-only); sealing only drops the stream the state was read
        from, so a restored entry sealed in the meantime serves the same
        arrays.  Only the container structures and the per-frame cursors
        need copying.  Used by the self-healing frame executor to rewind
        the carrier after a failed attempt.
        """
        return (list(self._states.items()), self._prev, self._current,
                self._key, self._hit, self._full_hit, self._acc_patch,
                self._partial_state, dict(self.stats))

    def restore(self, state):
        """Restore a :meth:`snapshot` (library, cursors and counters)."""
        (items, self._prev, self._current, self._key, self._hit,
         self._full_hit, self._acc_patch, self._partial_state,
         stats) = state
        self._states = OrderedDict(items)
        self.stats = dict(stats)

    # ------------------------------------------------------------------
    # Frame lifecycle
    # ------------------------------------------------------------------

    def begin_frame(self, stream):
        """Attach to a new frame's stream before digestion starts.

        The previous frame is finished by now, so its state is sealed
        first and the library is trimmed to its byte budget.  Then the
        frame's content is hashed and classified against the library
        eagerly, so a full hit can share the matched frame's FrameIR quad
        view *before* the quad table is built; the per-scanline
        classification of partial hits is deferred to the first
        arrival-cache request.
        """
        if self.mode == "off":
            return
        if stream.frameir is None or not stream._use_ir_digest():
            return
        t0 = perf_counter()
        if self._prev is not None:
            self._prev.seal()
        self._evict()
        # Classification runs *before* the backend's render call, whose
        # substage-delta accounting would otherwise swallow it; stash the
        # pre-classification snapshot so the renderer attributes this
        # frame's classification cost to its digest breakdown.
        stream._substage_base = dict(stream.substage_ms)
        stream.coherence = self
        self._current = stream
        self._full_hit = False
        self._hit = None
        self._acc_patch = None
        self._partial_state = None
        self._key = self._content_key(stream)
        cand = self._states.get(self._key)
        if faults.ENABLED and faults.checkpoint("coherence.verify") is not None:
            # Injected corruption of the carried state: exact verification
            # would reject a poisoned candidate, so model the detection as
            # a forced miss — the frame takes the always-available full
            # recompute path, which is bit-identical by construction.
            cand = None
        if cand is not None and self._verify(stream, cand):
            self._full_hit = True
            self._hit = cand
            self._states.move_to_end(self._key)
            # Verified-identical content means the chunklet/quad structure
            # is identical too: share the built quad view.
            pir = cand.frameir
            if pir._quads is not None:
                stream.frameir._quads = pir._quads
        stream._add_substage("pixel-group", t0)

    def _evict(self):
        """Drop least-recently-used states until the sealed states' bytes
        fit :attr:`max_bytes` (a single state larger than the budget is
        not kept)."""
        sizes = {key: state.nbytes for key, state in self._states.items()}
        total = sum(sizes.values())
        while total > self.max_bytes:
            key, _state = self._states.popitem(last=False)
            total -= sizes[key]

    def serve_arrival(self, stream):
        """Try to install the sorted-domain arrival caches from carried
        state; returns True when served (bit-identical to a recompute)."""
        if stream is not self._current:
            return False
        t0 = perf_counter()
        if self._full_hit:
            self._install_full(stream)
            self.stats["full_hits"] += 1
            self.capture(stream)
            stream._add_substage("arrival-alpha", t0)
            return True
        if self._prev is not None and self._serve_partial(stream):
            self.stats["partial_hits"] += 1
            self.capture(stream)
            stream._add_substage("arrival-alpha", t0)
            return True
        if self._states:
            self.stats["full_recomputes"] += 1
        return False

    def serve_accumulated(self, stream):
        """Patch the per-pixel accumulated-alpha map of a partially served
        frame from the previous frame's map."""
        patch = self._acc_patch
        if patch is None or stream is not self._current:
            return False
        prev_acc, clean_y, dirty_y, dirty_slots = patch
        width = stream.width
        acc = np.zeros(stream.n_pixels, dtype=np.float64)
        cols = np.arange(width, dtype=np.int64)
        if clean_y.shape[0]:
            idx = (clean_y[:, None] * width + cols).ravel()
            acc[idx] = prev_acc[idx]
        if dirty_y.shape[0]:
            pix = stream._cache["pix_sorted"][dirty_slots]
            weights = ((1.0 - stream._cache["arrival_sorted"][dirty_slots])
                       * stream._cache["alpha_eff_sorted"][dirty_slots]
                       .astype(np.float64))
            part = np.bincount(pix, weights=weights,
                               minlength=stream.n_pixels)
            idx = (dirty_y[:, None] * width + cols).ravel()
            acc[idx] = part[idx]
        acc.flags.writeable = False
        stream._cache["accumulated_alpha"] = acc
        self._acc_patch = None
        return True

    def capture(self, stream):
        """Adopt the just-digested stream as the coherence reference."""
        if self.mode == "off" or stream is not self._current:
            return
        if self._full_hit:
            # Content-identical frame: the sealed state it was served
            # from already holds everything this frame would keep.
            state = self._hit
        elif self._partial_state is not None:
            # The partial serve already built this frame's scanline aux.
            state = self._partial_state
        else:
            state = _FrameState(stream)
        if self._prev is not None and self._prev is not state:
            # Only the partial classification against the *next* frame
            # reads a state's scanline aux, and that has run by now.
            self._prev._rowgroups = None
        self._prev = state
        self._states[self._key] = state
        self._states.move_to_end(self._key)
        for key in ("pixel_order", "pix_sorted", "pixel_starts",
                    "alpha_eff_sorted", "arrival_sorted"):
            arr = stream._cache.get(key)
            if arr is not None:
                arr.flags.writeable = False

    # ------------------------------------------------------------------
    # Serving paths
    # ------------------------------------------------------------------

    def _install_full(self, stream):
        """Adopt a sealed state's arrays (all read-only); re-derive the
        widened pixel order and ``pix_sorted``."""
        stream._cache.update(self._hit.cache)
        order = stream._cache["pixel_order"].astype(np.int64)
        pix_sorted, _starts = stream._ir_pixel_segments()
        for value in (order, pix_sorted):
            value.flags.writeable = False
        stream._cache["pixel_order"] = order
        stream._cache["pix_sorted"] = pix_sorted

    def _serve_partial(self, stream):
        """Per-scanline classification, splice and dirty-subset recompute."""
        n = len(stream)
        prev = self._prev
        ir, pir = stream.frameir, prev.frameir
        if n == 0 or prev.n == 0:
            return False
        height, width = stream.height, stream.width
        state = _FrameState(stream)
        new = state.rowgroups()
        old = prev.rowgroups()

        # --- classify scanlines: candidates have matching row and
        # fragment counts; clean ones also match every interval and every
        # alpha bit (positional compares — counts equal means the
        # y-grouped selections align).
        cand_y = np.flatnonzero((new.row_counts == old.row_counts)
                                & (new.frag_counts == old.frag_counts)
                                & (new.row_counts > 0))
        clean_frags = int(new.frag_counts[cand_y].sum())
        if clean_frags < self.MIN_CLEAN_FRACTION * n:
            return False
        r_old = old.order_rows[
            _ragged_expand(old.row_offsets[cand_y], old.row_counts[cand_y])]
        r_new = new.order_rows[
            _ragged_expand(new.row_offsets[cand_y], new.row_counts[cand_y])]
        eq_rows = ((pir.row_xlo[r_old] == ir.row_xlo[r_new])
                   & (pir.row_xhi[r_old] == ir.row_xhi[r_new]))
        row_bounds = _exclusive_cumsum(new.row_counts[cand_y])
        rows_ok = np.logical_and.reduceat(eq_rows, row_bounds[:-1])
        ok_y = cand_y[rows_ok]
        r_old2 = old.order_rows[
            _ragged_expand(old.row_offsets[ok_y], old.row_counts[ok_y])]
        r_new2 = new.order_rows[
            _ragged_expand(new.row_offsets[ok_y], new.row_counts[ok_y])]
        lens2 = new.lengths[r_new2]
        e_old = _ragged_expand(pir.row_fstart[r_old2], lens2)
        e_new = _ragged_expand(ir.row_fstart[r_new2], lens2)
        eq_alpha = (prev.alphas.view(np.uint32)[e_old]
                    == stream.alphas.view(np.uint32)[e_new])
        frag_bounds = _exclusive_cumsum(new.frag_counts[ok_y])
        alpha_ok = np.logical_and.reduceat(eq_alpha, frag_bounds[:-1])
        clean_y = ok_y[alpha_ok]
        clean_frags = int(new.frag_counts[clean_y].sum())
        if clean_frags < self.MIN_CLEAN_FRACTION * n:
            return False
        clean_mask = np.zeros(height, dtype=bool)
        clean_mask[clean_y] = True
        dirty_y = np.flatnonzero((new.row_counts > 0) & ~clean_mask)

        # --- full-frame pixel grouping (identical to the full recompute:
        # same counting pass, same arrays).
        pix_sorted, starts = stream._ir_pixel_segments()

        order = np.empty(n, dtype=np.int64)
        alpha_eff = np.empty(n, dtype=np.float32)
        arrival = np.empty(n, dtype=np.float64)

        # --- clean scanlines: copy cached blocks to their new offsets.
        # The sorted domain is scanline-major, so a run of consecutive
        # copyable scanlines (clean, or empty on both sides) is one
        # contiguous block in *both* frames — each run is a slice copy,
        # not a gather.  Row alignment already paired every ok row's old
        # and new emission runs (``e_old``/``e_new``), so a scatter of
        # one into the other translates old emission indices to new ones,
        # re-targeting the pixel order — shifted rows included.
        trans = np.empty(prev.n, dtype=np.int64)
        trans[e_old] = e_new
        prev_arrival = prev.cache["arrival_sorted"]
        prev_alpha = prev.cache["alpha_eff_sorted"]
        prev_order = prev.cache["pixel_order"]
        copyable = clean_mask | ((new.row_counts == 0)
                                 & (old.row_counts == 0))
        edges = np.diff(copyable.astype(np.int8))
        run_lo = np.flatnonzero(edges == 1) + 1
        run_hi = np.flatnonzero(edges == -1) + 1
        if copyable[0]:
            run_lo = np.concatenate(([0], run_lo))
        if copyable[-1]:
            run_hi = np.concatenate((run_hi, [height]))
        for ya, yb in zip(run_lo, run_hi):
            s0, s1 = old.frag_offsets[ya], old.frag_offsets[yb]
            d0, d1 = new.frag_offsets[ya], new.frag_offsets[yb]
            arrival[d0:d1] = prev_arrival[s0:s1]
            alpha_eff[d0:d1] = prev_alpha[s0:s1]
            order[d0:d1] = trans[prev_order[s0:s1]]

        # --- dirty scanlines: the same stable grouping and sliced arrival
        # chain the full recompute runs, restricted to the dirty subset
        # (both are per-scanline computations, so the blocks come out
        # bit-identical).
        dirty_slots = np.empty(0, dtype=np.int64)
        if dirty_y.shape[0]:
            dirty_row_mask = np.zeros(height, dtype=bool)
            dirty_row_mask[dirty_y] = True
            ridx = np.flatnonzero(dirty_row_mask[ir.row_y])
            emit = _ragged_expand(ir.row_fstart[ridx], new.lengths[ridx])
            ys = stream.y[emit]
            xs = stream.x[emit]
            if stream.n_pixels <= 1 << 16:
                kdtype = np.uint16
            elif stream.n_pixels <= 1 << 32:
                kdtype = np.uint32
            else:
                kdtype = np.int64
            keys = ys.astype(kdtype) * kdtype(width) + xs.astype(kdtype)
            sub_order = np.argsort(keys, kind="stable")
            emit_sorted = emit[sub_order]
            sub_pix = keys[sub_order].astype(np.int64)
            sub_starts = segment_boundaries(sub_pix)
            sub_alpha = np.where(stream.unpruned[emit_sorted],
                                 stream.alphas[emit_sorted], np.float32(0.0))
            seg_y = sub_pix[sub_starts] // width
            first = np.empty(seg_y.shape, dtype=bool)
            first[0] = True
            np.not_equal(seg_y[1:], seg_y[:-1], out=first[1:])
            sub_bounds = np.concatenate((sub_starts[first],
                                         [emit.shape[0]]))
            sub_arrival = arrival_chain_sliced(sub_alpha, sub_starts,
                                               sub_bounds)
            dirty_slots = _ragged_expand(new.frag_offsets[dirty_y],
                                         new.frag_counts[dirty_y])
            arrival[dirty_slots] = sub_arrival
            alpha_eff[dirty_slots] = sub_alpha
            order[dirty_slots] = emit_sorted

        stream._cache["pixel_order"] = order
        stream._cache["pix_sorted"] = pix_sorted
        stream._cache["pixel_starts"] = starts
        stream._cache["alpha_eff_sorted"] = alpha_eff
        stream._cache["arrival_sorted"] = arrival
        prev_acc = prev.cache.get("accumulated_alpha")
        if prev_acc is not None:
            self._acc_patch = (prev_acc, clean_y, dirty_y, dirty_slots)
        self._partial_state = state
        return True
