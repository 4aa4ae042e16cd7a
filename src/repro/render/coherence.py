"""FrameCoherence: cross-frame digestion state for trajectory rendering.

Trajectory rendering loops revisit viewpoints — a looped orbit, a static
camera, a replayed view — whose digestion (pixel grouping, the
arrival-alpha chain, quad chunklets and columns, termination sets) is a
pure function of the frame's content.  This module carries the
*products* of that digestion across :class:`~repro.engine.session.
RenderSession` frames and serves them whenever a new frame's content
provably matches a digested one.

Granularity and exactness
-------------------------
The unit of reuse is the **whole frame**.  Classification is **exact
array comparison** of the FrameIR row intervals and the fragment alpha
bit patterns — never hashes, which could collide and silently break
bit-identity.  Two outcomes:

* **full hit** — every row and every alpha identical: the matched
  state's products (per-pixel accumulated alpha and termination ranks,
  the per-pixel exit primitives, the ET counts, the hardware draw's
  flush digest per ``GPUConfig``) are installed into the new stream's
  caches, and the matched frame's FrameIR quad view is shared, before
  digestion starts.  The draw then replays the digest through its units
  and caches without planning the flush schedule again;
* **full recompute** — no verified match: the stream digests from
  scratch, and the products it materialises are kept for later frames.

A consumer the hit does not serve (``arrival_alpha``, ``blend_image``,
the multipass model, a per-quad aggregate column, a draw under a config
the captured frame was not drawn under) recomputes
through the unchanged stateless path, so both outcomes are bit-identical
by construction, pinned by ``tests/test_coherence.py``.

State lifecycle
---------------
A missed frame's state holds the frame's stream while the frame is being
digested, then is *sealed* when the next frame begins: it keeps the
products the stream materialised (see :class:`_FrameState`) and drops
the stream.  The library is an LRU bounded by the summed bytes of its
sealed states (``max_bytes``), not by a state count.

The ``coherence`` knob
----------------------
``"auto"`` (the default) enables the carrier and ``"off"`` disables it
entirely, which makes every frame the full-recompute oracle.  The carrier
lives in :class:`~repro.engine.session.RenderSession`, which builds one
per session from its ``coherence`` keyword.  ``tests/test_coherence.py``
checks the carrier against ``"off"``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro import faults
from repro.knobs import COHERENCE_MODES  # re-exported; declared centrally
from repro.utils.arrays import ndarray_bytes

#: Default byte budget of a carrier's state library.  Measured sealed
#: states hold about 16.5 bytes per fragment on the HET+QM path and 10 on
#: the CUDA path, so an 8-view orbit library (``RenderSession.run``'s
#: default sweep) takes about 165 MiB on
#: lego (hw:het+qm, 1.1-1.4M fragments per view) and 126 MiB on garden
#: (cuda+et, 1.6-1.9M).  The budget keeps these loops, and those of
#: scenes a few times larger, fully resident.
DEFAULT_MAX_BYTES = 640 * 2**20


def resolve_coherence(mode="auto"):
    """Validate a ``coherence`` knob value."""
    if mode not in COHERENCE_MODES:
        raise ValueError(
            f"unknown coherence mode {mode!r}; choose from {COHERENCE_MODES}")
    return mode


class _FrameState:
    """One digested frame of the state library.

    A state is *live* while its frame is being digested: it holds the
    frame's stream, whose lazy caches keep filling in.  The carrier seals
    it (:meth:`seal`) at the next :meth:`FrameCoherence.begin_frame`, once
    the frame is finished.  A sealed state holds what a verified full hit
    serves, and nothing else: the FrameIR (row arrays for the exact
    verify, plus the shared quad view's metadata columns and the small
    per-pair inputs its fragment slots rebuild from), the alpha bits, and
    the stream's :attr:`PRODUCTS`.
    """

    __slots__ = ("stream", "frameir", "alphas", "n", "products")

    #: Stream cache families a sealed state keeps (a cache key is either
    #: the family name or a tuple led by it): the per-pixel accumulated
    #: alpha, termination ranks and exit primitives, the two ET counts,
    #: and the batched draw's flush digest per ``GPUConfig`` (a
    #: :class:`~repro.hwmodel.flushplan.FlushDigest`, read-only from
    #: construction).  The per-quad aggregate columns are not kept: only
    #: the draw read them, and a hit serves it from the digest.
    PRODUCTS = frozenset(("accumulated_alpha", "term_rank", "exit_prim",
                          "unpruned_count", "et_count", "flush_digest"))

    def __init__(self, stream):
        self.stream = stream
        # Content as digested: a later rebind of ``stream.alphas`` must
        # not change what this state verifies against.
        self.frameir = stream.frameir
        self.alphas = stream.alphas
        self.n = len(stream)
        self.products = None

    def seal(self):
        """Keep the stream's products, frozen read-only (a flush digest's
        arrays are read-only from construction); drop the stream and the
        quad view's per-quad fragment slots (also when a full hit on this
        state rebuilt them)."""
        stream = self.stream
        if stream is not None:
            products = {}
            # Products of rebound inputs would not match the content this
            # state verifies against; keep none then.
            if (stream.alphas is self.alphas
                    and stream.frameir is self.frameir):
                for key, value in stream._cache.items():
                    family = key[0] if isinstance(key, tuple) else key
                    if family in self.PRODUCTS:
                        if isinstance(value, np.ndarray):
                            value.flags.writeable = False
                        products[key] = value
            self.products = products
            self.stream = None
        if self.frameir._quads is not None:
            self.frameir._quads.release_slots()

    @property
    def nbytes(self):
        """Bytes of the arrays the state holds (the stream's excluded)."""
        return ndarray_bytes(self.frameir, self.alphas, self.products)


class FrameCoherence:
    """Carrier of cross-frame digestion state (see module docstring).

    One carrier serves one serial frame sequence: call :meth:`begin_frame`
    with each new frame's stream *before* digestion starts.
    """

    def __init__(self, mode="auto", max_bytes=DEFAULT_MAX_BYTES):
        self.mode = resolve_coherence(mode)
        self.max_bytes = int(max_bytes)
        #: Library of digested frames keyed by content hash, LRU-bounded
        #: by the summed bytes of its sealed states.  Trajectory rendering
        #: loops over a fixed set of viewpoints, so a revisited frame keys
        #: straight back to its digested state even when other frames
        #: rendered in between.
        self._states = OrderedDict()
        self._pows = None
        #: The last frame's library key and state (live until sealed).
        self._key = None
        self._prev = None
        #: Outcome counters (frames served per path), for observability.
        #: ``partial_hits`` stays 0 (whole-frame reuse only); the key is
        #: kept for reports that sum it.
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
        digestion product equal."""
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
        content never changes after capture (its products are frozen
        read-only); sealing only drops the stream the state was read from
        and slots that rebuild identically, so a restored entry sealed in
        the meantime serves the same products.  Used by the self-healing
        frame executor to rewind the carrier after a failed attempt.
        """
        return (list(self._states.items()), self._key, self._prev,
                dict(self.stats))

    def restore(self, state):
        """Restore a :meth:`snapshot` (library, cursors and counters)."""
        items, self._key, self._prev, stats = state
        self._states = OrderedDict(items)
        self.stats = dict(stats)

    def begin_frame(self, stream):
        """Attach to a new frame's stream before digestion starts.

        The previous frame is finished by now, so its state is sealed
        first and the library is trimmed to its byte budget.  Then the
        frame's content is hashed and verified against the library: a
        full hit installs the matched state's products and shares its
        FrameIR quad view *before* the quad table is built; a miss adds a
        live state for this frame.
        """
        if self.mode == "off" or stream.frameir is None:
            return
        if self._prev is not None:
            self._prev.seal()
        self._evict()
        self._key = self._content_key(stream)
        cand = self._states.get(self._key)
        if faults.ENABLED and faults.checkpoint("coherence.verify") is not None:
            # Injected corruption of the carried state: exact verification
            # would reject a poisoned candidate, so model the detection as
            # a forced miss — the frame takes the always-available full
            # recompute path, which is bit-identical by construction.
            cand = None
        if cand is not None and self._verify(stream, cand):
            self.stats["full_hits"] += 1
            stream._cache.update(cand.products)
            # Verified-identical content means the chunklet/quad structure
            # is identical too: share the built quad view.
            if cand.frameir._quads is not None:
                stream.frameir._quads = cand.frameir._quads
            self._prev = cand
        else:
            if self._states:
                self.stats["full_recomputes"] += 1
            self._prev = self._states[self._key] = _FrameState(stream)
        self._states.move_to_end(self._key)

    def _evict(self):
        """Drop least-recently-used states until the sealed states' bytes
        fit :attr:`max_bytes` (a single state larger than the budget is
        not kept)."""
        sizes = {key: state.nbytes for key, state in self._states.items()}
        total = sum(sizes.values())
        while total > self.max_bytes:
            key, _state = self._states.popitem(last=False)
            total -= sizes[key]
