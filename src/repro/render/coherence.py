"""FrameCoherence: cross-frame digestion state for trajectory rendering.

Trajectory rendering loops revisit viewpoints — a looped orbit, a static
camera, a replayed view — whose rasterisation and digestion (pixel
grouping, the arrival-alpha chain, quad chunklets and columns,
termination sets) are pure functions of the frame's splats.  This
module carries the fragment stream and the *products* of that digestion
across :class:`~repro.engine.session.RenderSession` frames and serves
them whenever a new frame's content provably matches a digested one.

Two entries, one library
------------------------
The unit of reuse is the **whole frame**, and every hit is verified by
**exact comparison** — a hash only picks the candidate, so a collision
can cost a missed hit, never bit-identity::

    splats --serve()--> hit:  stream rebuilt from the sealed state
       |                      (FrameIR and alphas; products installed)
       |                      -- the rasteriser never runs
       +-- miss --> rasterize_splats --> stream
                      --begin_frame(stream, splats=)--> hit or capture

* :meth:`FrameCoherence.serve` runs **before rasterisation**.  A state
  recorded with its frame's splats is a hit when every ``Splat2D`` field
  the rasteriser reads (``centers``, ``axes``, ``radii``, ``conics``,
  ``opacities``, ``colors``) has the same dtype, shape and bit pattern,
  and the framebuffer size matches: the rasteriser is a deterministic
  function of exactly these inputs, so the state's FrameIR and alphas
  *are* the frame's raster.  The stream's ``prim_ids``, ``x`` and ``y``
  are rebuilt from the FrameIR rows, on first read, by the producer the
  rasteriser itself uses (:func:`~repro.render.frameir.row_fragments`);
  a hit whose consumers are all served never reads them.
* :meth:`FrameCoherence.begin_frame` runs **after rasterisation** and
  compares the FrameIR row intervals and the fragment alpha bit
  patterns.  It serves streams whose splats are unknown, and on a miss
  it captures the frame (with its splats, when the caller passes them).

On either hit the matched state's products (per-pixel accumulated alpha
and termination ranks, the per-pixel exit primitives, the ET counts, and
per ``GPUConfig`` the hardware draw's finished stats and flush digest)
are installed into the stream's caches, and the matched frame's FrameIR
quad view is shared, before digestion starts.  Every hardware draw starts
on a cold CROP cache and a cleared stencil, so an untraced batched draw
is a pure function of the frame's content and the config: the draw
returns a copy of the memoized stats and runs no unit.  A traced or
warm-cache draw replays the digest without planning the flush schedule
again.  On a miss (**full recompute**) the stream digests from scratch,
and the products it materialises are kept for later frames.

A consumer the hit does not serve (``arrival_alpha``, ``blend_image``,
the multipass model, a per-quad aggregate column, a draw under a config
the captured frame was not drawn under, the scalar flush engine)
recomputes through the unchanged stateless path, so every outcome is
bit-identical by construction, pinned by ``tests/test_coherence.py``.

State lifecycle
---------------
A missed frame's state holds the frame's stream while the frame is being
digested, then is *sealed* when the next frame starts: by
:meth:`~FrameCoherence.serve`, hit or miss, so the finished frame is
released before the next raster allocates (or by
:meth:`~FrameCoherence.begin_frame` for a caller that does not serve).
A sealed state keeps the products the stream materialised, its raster
(see :class:`_FrameState`) and a copy of its splats, and drops the
stream and every quad-view array but the group ranges.  Captured alphas
and FrameIR rows are read-only, so no consumer can change the raster a
later hit serves.  The library is an LRU bounded by the summed bytes of
its sealed states (``max_bytes``), not by a state count; each state is
sized when it is sealed.

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

from repro.render.fragstream import FragmentStream
from repro.utils.arrays import ndarray_bytes

#: Default byte budget of a carrier's state library.  Measured sealed
#: states, splat record included, hold about 7.3 bytes per fragment on
#: the HET+QM path and 6.9 on the CUDA path, so an 8-view orbit library
#: (``RenderSession.run``'s default sweep) takes about 73 MiB on lego
#: (hw:het+qm, 1.1-1.4M fragments per view) and 89 MiB on garden
#: (cuda+et, 1.5-2.0M).  The budget keeps these loops, and those of
#: scenes several times larger, fully resident.
DEFAULT_MAX_BYTES = 640 * 2**20

#: Valid values of the ``coherence`` knob: the carrier on, or off (the
#: full-recompute oracle).
COHERENCE_MODES = ("auto", "off")

#: The ``Splat2D`` fields :func:`~repro.render.splat_raster.
#: rasterize_splats` reads: a pre-raster hit verifies exactly these.
SPLAT_FIELDS = ("centers", "axes", "radii", "conics", "opacities", "colors")


def resolve_coherence(mode="auto"):
    """Validate a ``coherence`` knob value."""
    if mode not in COHERENCE_MODES:
        raise ValueError(
            f"unknown coherence mode {mode!r}; choose from {COHERENCE_MODES}")
    return mode


def _bits(array):
    """Flat unsigned-integer view of an array's raw bit patterns."""
    flat = np.ascontiguousarray(array).reshape(-1)
    return flat.view(f"u{flat.dtype.itemsize}")


def _same_bits(a, b):
    """Same dtype, shape and bit pattern (``-0.0 != 0.0``, NaNs by bits)."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(_bits(a), _bits(b)))


class _FrameState:
    """One digested frame of the state library.

    A state is *live* while its frame is being digested: it holds the
    frame's stream, whose lazy caches keep filling in.  The carrier seals
    it (:meth:`seal`) when the next frame starts, once the frame is
    finished.  A sealed state holds what a verified full hit reads, and
    nothing else: the FrameIR (row arrays for the exact verify and the
    served coordinates, plus the shared quad view's group ranges; its
    other columns rebuild from the rows on a later non-hit read), the
    alphas, the stream's :attr:`PRODUCTS` and, when the frame was
    captured with its splats, the splat record a pre-raster hit verifies
    against (``splat_key``, a copy of the :data:`SPLAT_FIELDS` arrays).
    """

    __slots__ = ("stream", "frameir", "alphas", "n", "products",
                 "splat_key", "splats", "_nbytes")

    #: Stream cache families a sealed state keeps (a cache key is either
    #: the family name or a tuple led by it): the per-pixel accumulated
    #: alpha, termination ranks and exit primitives, the two ET counts,
    #: and per ``GPUConfig`` the batched draw's finished stats (a
    #: :class:`~repro.hwmodel.stats.PipelineStats`, which every draw
    #: hands out only as a copy) and its flush digest (a
    #: :class:`~repro.hwmodel.flushplan.FlushDigest`, read-only from
    #: construction).  A hit's untraced cold draw returns the stats; a
    #: traced or warm-cache redraw replays the digest.  The per-quad
    #: aggregate columns are not kept: only the draw read them.
    PRODUCTS = frozenset(("accumulated_alpha", "term_rank", "exit_prim",
                          "unpruned_count", "et_count", "draw_stats",
                          "flush_digest"))

    def __init__(self, stream, splats=None, splat_key=None):
        self.stream = stream
        # Content as digested, frozen: a later rebind of ``stream.alphas``
        # must not change what this state verifies against, and no
        # consumer may write the raster a later hit serves.
        ir = self.frameir = stream.frameir
        self.alphas = stream.alphas
        for array in (self.alphas, ir.row_prim, ir.row_y, ir.row_xlo,
                      ir.row_xhi, ir.row_fstart):
            array.flags.writeable = False
        self.n = len(stream)
        self.products = None
        self.splat_key = self.splats = None
        if splats is not None:
            # Copies: later writes to the caller's arrays cannot change
            # what a pre-raster hit verifies against.
            self.splat_key = splat_key
            self.splats = tuple(np.array(getattr(splats, name))
                                for name in SPLAT_FIELDS)
        self._nbytes = None

    def matches_splats(self, splats):
        """Exact equality of ``splats``' rasteriser inputs with the
        recorded ones (the caller has matched the key)."""
        return all(
            _same_bits(getattr(splats, name), kept)
            for name, kept in zip(SPLAT_FIELDS, self.splats))

    def served_stream(self, splats):
        """The stream :func:`~repro.render.splat_raster.rasterize_splats`
        emits for ``splats`` (verified equal to the recorded ones), rebuilt
        from the sealed raster: shared FrameIR and alphas.  Its
        coordinates expand from the FrameIR rows only if a consumer the
        hit does not serve reads them, and live on the stream, never in
        this state."""
        ir = self.frameir
        return FragmentStream(
            prim_ids=None, x=None, y=None, alphas=self.alphas,
            prim_colors=splats.colors, width=ir.width, height=ir.height,
            validate=False, frameir=ir)

    def seal(self):
        """Keep the stream's products, frozen read-only (a flush digest's
        arrays are read-only from construction); drop the stream and all
        of the quad view but its groups (also what a consumer of a full
        hit on this state rebuilt), and size what is left."""
        stream = self.stream
        if stream is not None:
            products = {}
            # Products of rebound inputs would not match the content this
            # state verifies against; keep none then, and no splat record
            # to serve them by.
            if (stream.alphas is self.alphas
                    and stream.frameir is self.frameir):
                for key, value in stream._cache.items():
                    family = key[0] if isinstance(key, tuple) else key
                    if family in self.PRODUCTS:
                        if isinstance(value, np.ndarray):
                            value.flags.writeable = False
                        products[key] = value
            else:
                self.splat_key = self.splats = None
            self.products = products
            self.stream = None
        if self.frameir._quads is not None:
            self.frameir._quads.release()
        self._nbytes = self._walk_bytes()

    def _walk_bytes(self):
        return ndarray_bytes(self.frameir, self.alphas, self.products,
                             self.splats)

    @property
    def nbytes(self):
        """Bytes of the arrays the state holds (the stream's excluded), as
        sized at its last :meth:`seal`; a live state is walked afresh."""
        if self._nbytes is None:
            return self._walk_bytes()
        return self._nbytes


class FrameCoherence:
    """Carrier of cross-frame digestion state (see module docstring).

    One carrier serves one serial frame sequence.  Per frame, call
    :meth:`serve` with the frame's splats before rasterising; if it
    returns ``None``, rasterise and call :meth:`begin_frame` with the
    stream (and the splats) *before* digestion starts.  A caller without
    the splats calls :meth:`begin_frame` alone.
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
        #: The last frame's state, until sealed.
        self._prev = None
        #: Outcome counters (frames served per path), for observability.
        #: ``partial_hits`` stays 0 (whole-frame reuse only); the key is
        #: kept for reports that sum it.
        self.stats = {"full_hits": 0, "partial_hits": 0, "full_recomputes": 0}

    def _powers(self, n):
        """The first ``n`` powers of the hash multiplier (uint64, cached)."""
        pows = self._pows
        if pows is None or pows.shape[0] < n:
            pows = np.multiply.accumulate(
                np.full(max(n, 1 << 16), np.uint64(0x9E3779B97F4A7C15)))
            self._pows = pows
        return pows[:n]

    def _hash_bits(self, array):
        """Position-weighted 64-bit hash of an array's raw bits."""
        bits = _bits(array)
        return int((bits * self._powers(bits.size)).sum())

    def _content_key(self, stream):
        """Position-weighted 64-bit hash of a frame's row structure, plus
        its sizes.  The alphas are left out: rows are ~20x fewer than
        fragments, and the hash only *selects* a library candidate —
        :meth:`_verify` then compares rows and alpha bits exactly before
        any reuse.  Two frames with identical rows (an opacity edit)
        collide here; :meth:`begin_frame` then folds the alpha bits into
        the second frame's key.
        """
        ir = stream.frameir
        mix = (ir.row_y.astype(np.uint64)
               + (ir.row_xlo.astype(np.uint64) << np.uint64(16))
               + (ir.row_xhi.astype(np.uint64) << np.uint64(32))
               + ir.row_prim.astype(np.uint64) * np.uint64(0x100000001B3))
        h_rows = int((mix * self._powers(ir.n_rows)).sum())
        return (stream.width, stream.height, len(stream), ir.n_rows, h_rows)

    def _splat_key(self, splats, width, height):
        """Position-weighted 64-bit hash of each rasteriser input field's
        bits, plus the framebuffer size.  Like :meth:`_content_key` it
        only selects a candidate: :meth:`_FrameState.matches_splats`
        compares every field exactly before any reuse."""
        hashes = [self._hash_bits(getattr(splats, name))
                  for name in SPLAT_FIELDS]
        return (int(width), int(height), len(splats), *hashes)

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

    def serve(self, splats, width, height):
        """A revisited frame's stream, before rasterisation, or ``None``.

        Hashes ``splats``' rasteriser inputs and the framebuffer size to
        pick a library state recorded with its splats, and verifies every
        field bit for bit.  The previous frame is sealed first, hit or
        miss, so a miss rasterises with only sealed states alive.  A hit
        trims the library and returns the stream
        :func:`~repro.render.splat_raster.rasterize_splats` would emit
        (``ir="auto"``), with the state's products installed.  On a miss
        the caller rasterises and calls :meth:`begin_frame`.
        """
        if self.mode == "off":
            return None
        self._seal_prev()
        skey = self._splat_key(splats, width, height)
        for key, cand in self._states.items():
            if cand.splat_key == skey and cand.matches_splats(splats):
                break
        else:
            return None
        self._states.move_to_end(key)
        self._evict()
        stream = cand.served_stream(splats)
        self._install(stream, cand)
        return stream

    def begin_frame(self, stream, splats=None):
        """Attach to a new frame's stream before digestion starts.

        The previous frame is finished by now, so its state is sealed
        first (unless :meth:`serve` sealed it already) and the library is
        trimmed to its byte budget.  Then the frame's content is hashed
        and verified against the library: a full hit installs the matched
        state's products and shares its FrameIR quad view *before* the
        quad table is built; a miss adds a live state for this frame,
        recording ``splats`` (the splats the stream was rasterised from)
        for later :meth:`serve` hits.  A miss whose rows match a library
        state's keeps both states.
        """
        if self.mode == "off" or stream.frameir is None:
            return
        self._seal_prev()
        self._evict()
        key = self._content_key(stream)
        cand = self._states.get(key)
        if cand is not None and not self._verify(stream, cand):
            # Same rows, other alphas (an opacity edit): key this frame by
            # its alpha bits too, so neither state replaces the other.
            key += (self._hash_bits(stream.alphas),)
            cand = self._states.get(key)
        if cand is not None and self._verify(stream, cand):
            self._install(stream, cand)
        else:
            if self._states:
                self.stats["full_recomputes"] += 1
            skey = (None if splats is None else
                    self._splat_key(splats, stream.width, stream.height))
            self._prev = self._states[key] = _FrameState(stream, splats,
                                                         skey)
        self._states.move_to_end(key)

    def _seal_prev(self):
        """Seal the last frame's state, once: the frame is finished when
        the next one starts, before the next raster allocates."""
        if self._prev is not None:
            self._prev.seal()
            self._prev = None

    def _install(self, stream, cand):
        """Serve ``stream`` from the verified state ``cand``: its products
        and its built quad view (verified-identical content means the
        chunklet/quad structure is identical too)."""
        self.stats["full_hits"] += 1
        stream._cache.update(cand.products)
        if cand.frameir._quads is not None:
            stream.frameir._quads = cand.frameir._quads
        self._prev = cand

    def _evict(self):
        """Drop least-recently-used states until the sealed states' bytes
        fit :attr:`max_bytes` (a single state larger than the budget is
        not kept)."""
        total = sum(state.nbytes for state in self._states.values())
        while total > self.max_bytes:
            _key, state = self._states.popitem(last=False)
            total -= state.nbytes
