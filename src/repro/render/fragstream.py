"""FragmentStream: the canonical fragment-level view of a draw call.

Every simulator in the library (reference renderer, CUDA-style software
renderer, hardware pipeline, VR-Pipe variants) consumes the same stream of
fragments produced by :func:`repro.render.splat_raster.rasterize_splats`.
The stream knows, for every fragment:

* its *arrival accumulated alpha* — the pixel's accumulated alpha at the
  moment the fragment would be blended (fragments are ordered front-to-back
  per pixel because splats are depth sorted), which defines perfect
  fragment-level early termination;
* whether it is *pruned* (alpha < 1/255, discarded in the fragment shader);
* its 2x2 quad, screen tile (16x16 px) and tile grid (64x64 px) membership.

All heavy quantities are computed lazily and cached.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.utils.arrays import segment_boundaries, sliced_cumsum

#: Default early-termination threshold on accumulated alpha (paper: 0.996).
DEFAULT_TERMINATION_ALPHA = 0.996

#: Alpha-pruning threshold (1/255), as in the paper's fragment shader.
PRUNE_EPS = 1.0 / 255.0

#: Fixed-function geometry of the modelled GPU (Section II / Table I), in
#: pixels: the one home of the tile arithmetic of every model module.
QUAD_SIZE = 2
RASTER_TILE_SIZE = 8  # 2x2 raster tiles per screen tile
TILE_SIZE = 16
TILE_GRID_TILES = 4  # a tile grid is 4x4 screen tiles = 64x64 pixels
QUADS_PER_TILE_AXIS = TILE_SIZE // QUAD_SIZE  # 8 -> 64 quad positions/tile
QUADS_PER_RASTER_TILE_AXIS = RASTER_TILE_SIZE // QUAD_SIZE  # 4


def arrival_chain_sliced(alpha_eff_sorted, starts, slice_bounds):
    """Arrival accumulated alpha over a pixel-sorted fragment block.

    ``alpha_eff_sorted`` is the per-fragment effective alpha (zero when
    pruned) in pixel-sorted order, ``starts`` the per-pixel segment
    offsets, ``slice_bounds`` the scanline block offsets (the sorted
    domain is scanline-major, so each scanline is one contiguous slice).
    Returns the per-fragment arrival alpha
    ``1 - prod_{j earlier at the pixel} (1 - alpha_j)``.

    The log-space scans run *per scanline slice* (:func:`~repro.utils.
    arrays.sliced_cumsum`), so every output element is a pure function of
    its scanline's fragment content.  That summation order defines the
    arrival floats of every stream, with or without a FrameIR (both
    digestion paths group pixels identically), which the golden suites
    and the benchmark digests pin; a global scan would round differently.
    """
    n = alpha_eff_sorted.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.float64)
    logs = alpha_eff_sorted.astype(np.float64)
    np.subtract(1.0, logs, out=logs)
    # Clamp unconditionally: inert for every representable alpha < 1
    # (``1 - float32(<1)`` is at least ~6e-8), and exactly the legacy
    # policy when alpha == 1, so the result never depends on other
    # scanlines' maxima.
    np.maximum(logs, 1e-30, out=logs)
    np.log(logs, out=logs)
    lcs = sliced_cumsum(logs, slice_bounds)
    # Per-pixel exclusive log-transmittance: the scanline-local inclusive
    # scan minus the fragment's own log and the pixel's preceding scan
    # value (zero for each scanline's first pixel segment).
    offsets = lcs[starts - 1]  # wraps at starts[0] == 0; zeroed below
    offsets[np.searchsorted(starts, slice_bounds[:-1])] = 0.0
    seg_lens = np.diff(np.concatenate(
        (starts, np.asarray([n], dtype=np.int64))))
    lcs -= logs
    lcs -= np.repeat(offsets, seg_lens)
    arrival = np.exp(lcs, out=lcs)
    np.subtract(1.0, arrival, out=arrival)
    return arrival


def _weighted_bincount(keys, weights, minlength):
    """Weighted ``np.bincount``, float64 for every input: NumPy returns
    int64 zeros for an empty ``keys``, whatever the weights' dtype."""
    return np.bincount(keys, weights=weights,
                       minlength=minlength).astype(np.float64, copy=False)


class FragmentStream:
    """Fragments of one draw call, in primitive-major emission order.

    Parameters
    ----------
    prim_ids:
        ``(n,)`` int32 index of the emitting splat (ascending in draw order).
    x, y:
        ``(n,)`` int32 pixel coordinates.
    alphas:
        ``(n,)`` float32 fragment alphas (already capped at 0.99).
    prim_colors:
        ``(n_prims, 3)`` RGB per primitive (fragments share their splat's
        colour, as in the paper's vertex-colour scheme).
    width, height:
        Framebuffer dimensions.
    frameir:
        Optional :class:`~repro.render.frameir.FrameIR` carrying the
        rasteriser's row-interval structure; when present the quad table
        and (prim, tile) group ranges are derived from it instead of
        re-sorted from the fragments — bit-identically.  Whether a stream
        carries one is the only digestion-path choice (see
        :mod:`repro.render.frameir`).
    """

    def __init__(self, prim_ids, x, y, alphas, prim_colors, width, height,
                 validate=True, frameir=None):
        self.prim_ids = np.asarray(prim_ids, dtype=np.int32)
        self.x = np.asarray(x, dtype=np.int32)
        self.y = np.asarray(y, dtype=np.int32)
        self.alphas = np.asarray(alphas, dtype=np.float32)
        self.prim_colors = np.asarray(prim_colors, dtype=np.float64)
        self.width = int(width)
        self.height = int(height)
        n = self.prim_ids.shape[0]
        for name, arr in (("x", self.x), ("y", self.y), ("alphas", self.alphas)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        # ``validate=False`` skips the six full-stream min/max range
        # reductions; reserved for producers whose outputs are range-safe
        # by construction (the rasterisers clip to the framebuffer).
        if validate and n:
            if (self.prim_ids.min() < 0
                    or self.prim_ids.max() >= self.prim_colors.shape[0]):
                raise ValueError("prim_ids reference colours out of range")
            if ((self.x.min() < 0) or (self.x.max() >= self.width)
                    or (self.y.min() < 0) or (self.y.max() >= self.height)):
                raise ValueError(
                    "fragment coordinates fall outside the framebuffer")
        self.frameir = frameir
        self._cache = {}

    # ------------------------------------------------------------------
    # Basic derived arrays
    # ------------------------------------------------------------------

    def __len__(self):
        return self.prim_ids.shape[0]

    @property
    def n_fragments(self):
        return len(self)

    @property
    def n_pixels(self):
        return self.width * self.height

    @property
    def pixel_ids(self):
        """``y * width + x`` per fragment."""
        if "pixel_ids" not in self._cache:
            self._cache["pixel_ids"] = (
                self.y.astype(np.int64) * self.width + self.x)
        return self._cache["pixel_ids"]

    @property
    def unpruned(self):
        """Mask of fragments surviving alpha pruning (alpha >= 1/255)."""
        if "unpruned" not in self._cache:
            self._cache["unpruned"] = self.alphas >= PRUNE_EPS
        return self._cache["unpruned"]

    def _radix_pixel_keys(self):
        """Pixel sort keys in the narrowest unsigned dtype that holds them.

        NumPy's stable integer argsort is an LSD radix sort over the key
        bytes, so halving the key width halves the counting passes: a
        uint16 key (framebuffers up to 65536 pixels) sorts in two passes
        where the int64 ``pixel_ids`` key takes eight.  The values are
        identical pixel ids, so the stable permutation is identical.
        """
        n_pixels = self.n_pixels
        if n_pixels <= 1 << 16:
            dtype = np.uint16
        elif n_pixels <= 1 << 32:
            dtype = np.uint32
        else:
            return self.pixel_ids
        return (self.y.astype(dtype) * dtype(self.width)
                + self.x.astype(dtype))

    def _ensure_pixel_grouping(self):
        """Materialise ``pixel_order``, ``pix_sorted`` and ``pixel_starts``.

        ``pixel_order`` lexsorts the fragments by (pixel, draw order); this
        is the only place it is made.  On IR-backed streams the rasteriser's
        emission order has non-decreasing prim ids, so the permutation is a
        bounded-key radix sort over narrow pixel keys, and the per-pixel
        fragment counts come from a counting pass over the row intervals
        (two bincounts of interval endpoints plus one prefix sum — no
        fragment-level work), which yields ``pix_sorted``/``pixel_starts``
        directly.  Streams without an IR (hand-built, scalar-emitted) take
        the definition, ``np.lexsort((prim_ids, pixel_ids))``, and group
        the gathered pixel ids.  Both paths produce the identical
        permutation and identical caches, pinned by
        ``tests/test_coherence.py``.
        """
        if "pix_sorted" in self._cache:
            return
        if self.frameir is not None and len(self):
            order = np.argsort(self._radix_pixel_keys(), kind="stable")
            pix_sorted, starts = self._ir_pixel_segments()
        else:
            order = np.lexsort((self.prim_ids, self.pixel_ids))
            pix_sorted = self.pixel_ids[order]
            starts = segment_boundaries(pix_sorted)
        self._cache["pixel_order"] = order
        self._cache["pix_sorted"] = pix_sorted
        self._cache["pixel_starts"] = starts

    def _ir_pixel_counts(self):
        """Per-pixel fragment counts from the IR's row intervals.

        A row covering ``[xlo, xhi]`` on scanline ``y`` adds one fragment
        to each pixel of the interval; the counts are the prefix sum of
        the interval endpoint difference array over the flat pixel space.
        (An interval's ``-1`` marker at ``xhi + 1`` may land on the next
        scanline's first pixel, but its ``+1`` partner was already summed
        by then, so the running sum stays exact — integer arithmetic.)
        """
        ir = self.frameir
        n_pixels = self.n_pixels
        row_y = ir.row_y.astype(np.int64)
        start_keys = row_y * self.width + ir.row_xlo
        end_keys = start_keys + (ir.row_xhi - ir.row_xlo) + 1
        diff = (np.bincount(start_keys, minlength=n_pixels + 1)
                - np.bincount(end_keys, minlength=n_pixels + 1))
        return np.cumsum(diff[:n_pixels])

    def _ir_pixel_segments(self):
        """``(pix_sorted, pixel_starts)`` from the IR's per-pixel counts.

        The pixel-sorted domain lists every non-empty pixel once per
        fragment, pixels ascending; both arrays follow from the counts
        alone, with no fragment-level sort.
        """
        counts = self._ir_pixel_counts()
        nz = np.flatnonzero(counts)
        seg_counts = counts[nz]
        starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(seg_counts)[:-1]))
        return np.repeat(nz, seg_counts), starts

    @property
    def _pixel_order(self):
        """Indices lexsorting fragments by (pixel, draw order)."""
        self._ensure_pixel_grouping()
        return self._cache["pixel_order"]

    def _sorted_scanline_bounds(self):
        """Scanline block offsets of the pixel-sorted stream.

        The sorted domain is scanline-major (pixel id = ``y * width + x``),
        so each scanline is one contiguous fragment block; the bounds are
        the offsets ``[b0=0, ..., bk=n]`` delimiting them.
        """
        if "scanline_bounds" not in self._cache:
            starts = self._cache["pixel_starts"]
            pix_sorted = self._cache["pix_sorted"]
            if starts.shape[0] == 0:
                bounds = np.zeros(1, dtype=np.int64)
            else:
                seg_y = pix_sorted[starts] // self.width
                first = np.empty(seg_y.shape, dtype=bool)
                first[0] = True
                np.not_equal(seg_y[1:], seg_y[:-1], out=first[1:])
                bounds = np.concatenate(
                    (starts[first],
                     np.asarray([len(self)], dtype=np.int64)))
            self._cache["scanline_bounds"] = bounds
        return self._cache["scanline_bounds"]

    def _ensure_arrival_sorted(self):
        """Materialise the pixel-sorted arrival caches (no fragment-order
        scatter).

        Populates ``pix_sorted``, ``pixel_starts``, ``alpha_eff_sorted``
        (per-fragment effective alpha — zero when pruned) and
        ``arrival_sorted`` in the pixel-sorted domain.  Every consumer —
        :attr:`arrival_alpha`, :attr:`accumulated_alpha`, the termination
        masks, the HET rank structure — shares these caches instead of
        re-running the arrival chain, and only :attr:`arrival_alpha`
        itself pays for the scatter back to fragment order.
        """
        if "arrival_sorted" in self._cache:
            return
        self._ensure_pixel_grouping()
        order = self._cache["pixel_order"]
        # Effective alphas in emission order first, then one gather —
        # identical values to gathering ``unpruned``/``alphas``
        # separately, one fewer full-width gather.
        alpha_eff = np.where(self.unpruned, self.alphas,
                             np.float32(0.0))[order]
        arrival_sorted = arrival_chain_sliced(
            alpha_eff, self._cache["pixel_starts"],
            self._sorted_scanline_bounds())
        self._cache["alpha_eff_sorted"] = alpha_eff
        self._cache["arrival_sorted"] = arrival_sorted

    @property
    def arrival_alpha(self):
        """Per-fragment accumulated pixel alpha at the fragment's arrival.

        For fragment ``i`` of pixel ``p`` this is
        ``1 - prod_{j earlier unpruned at p} (1 - alpha_j)``; pruned
        fragments contribute nothing but still *have* an arrival state.
        This quantity decides perfect fragment-level early termination:
        a fragment is blended iff it is unpruned and
        ``arrival_alpha < threshold``.
        """
        if "arrival_alpha" not in self._cache:
            self._ensure_arrival_sorted()
            arrival = np.empty(len(self), dtype=np.float64)
            arrival[self._pixel_order] = self._cache["arrival_sorted"]
            self._cache["arrival_alpha"] = arrival
        return self._cache["arrival_alpha"]

    def et_survivor_mask(self, threshold=DEFAULT_TERMINATION_ALPHA):
        """Fragments blended under perfect early termination.

        A fragment is blended iff it survives alpha pruning *and* its pixel
        had not yet reached the termination threshold when it arrived.
        """
        key = ("et_survivor", round(float(threshold), 9))
        if key not in self._cache:
            # Built in the pixel-sorted domain and scattered once:
            # ``alpha_eff > 0`` is exactly the unpruned predicate (unpruned
            # alphas are >= 1/255).
            self._ensure_arrival_sorted()
            mask = np.empty(len(self), dtype=bool)
            mask[self._pixel_order] = (
                (self._cache["alpha_eff_sorted"] > 0)
                & (self._cache["arrival_sorted"] < threshold))
            self._cache[key] = mask
        return self._cache[key]

    def unterminated_on_arrival(self, threshold=DEFAULT_TERMINATION_ALPHA,
                                lag=0):
        """Fragments (pruned or not) arriving before their pixel terminated.

        This is what the ZROP termination *test* sees: it runs before
        shading, so pruning is invisible to it.

        ``lag`` models the in-flight window of hardware early termination:
        the blend that crosses the threshold, the alpha-test signal, and the
        stencil update all take time, during which the next ``lag``
        fragments of the pixel still pass the test.  ``lag=0`` is the
        perfect fragment-granular bound.

        With ``lag > 0`` the test is a pure integer one: a fragment passes
        iff its rank within its pixel is below the pixel's termination rank
        plus ``lag``.  On a stream carrying a FrameIR it is answered per
        pixel (:meth:`_kill_cutoffs`) and read back in emission order as
        ``prim_ids < cutoff[pixel]``, with no scatter; bare streams rank
        every fragment in the pixel-sorted domain and scatter the result
        (the reference path).  ``lag == 0`` compares arrival alphas on both.
        """
        if lag < 0:
            # A negative window would kill fragments before the threshold
            # crossing itself.
            raise ValueError(f"lag must be non-negative, got {lag}")
        key = ("unterminated", round(float(threshold), 9), int(lag))
        if key not in self._cache:
            if lag == 0:
                # Compare in the sorted domain, scatter the boolean once
                # (no float64 scatter).
                self._ensure_arrival_sorted()
                out = np.empty(len(self), dtype=bool)
                out[self._pixel_order] = (
                    self._cache["arrival_sorted"] < threshold)
                self._cache[key] = out
            elif self.frameir is not None:
                cutoff = self._kill_cutoffs(threshold, int(lag))
                if self.n_pixels < 1 << 31:
                    pixels = self.y * np.int32(self.width) + self.x
                else:
                    pixels = self.pixel_ids
                self._cache[key] = self.prim_ids < np.take(cutoff, pixels)
            else:
                # Compare in the pixel-sorted domain (each fragment's rank
                # within its pixel against the pixel's termination rank)
                # and scatter the boolean once.
                term_rank = self._term_rank(threshold)
                # A coherence full hit installs ``term_rank`` without the
                # pixel grouping it was derived from.
                self._ensure_pixel_grouping()
                starts = self._cache["pixel_starts"]
                pix_sorted = self._cache["pix_sorted"]
                lengths = np.diff(np.concatenate(
                    (starts, np.asarray([len(self)], dtype=np.int64))))
                local = (np.arange(len(self), dtype=np.int64)
                         - np.repeat(starts, lengths))
                out = np.empty(len(self), dtype=bool)
                out[self._pixel_order] = (local
                                          < term_rank[pix_sorted] + int(lag))
                self._cache[key] = out
        return self._cache[key]

    def _kill_cutoffs(self, threshold, lag):
        """Per-pixel HET kill cutoff of a FrameIR stream, int32.

        ``cutoff[p]`` is the primitive of pixel ``p``'s fragment at
        pixel-sorted index ``start[p] + term_rank[p] + lag`` — the first
        one the termination test kills — or the int32 maximum when that
        index runs past the pixel's segment (nothing is killed).  A FrameIR
        stream gives each splat at most one fragment per pixel and its
        primitive ids ascend in draw order, so within a pixel a fragment's
        rank is below ``term_rank + lag`` exactly when its primitive is
        below the cutoff.  Derived from the cached :meth:`_term_rank`, so
        a coherence full hit (which installs the ranks) reuses them.
        """
        term_rank = self._term_rank(threshold)
        # A coherence full hit installs ``term_rank`` without the pixel
        # grouping it was derived from.
        self._ensure_pixel_grouping()
        cutoff = np.full(self.n_pixels, np.iinfo(np.int32).max,
                         dtype=np.int32)
        starts = self._cache["pixel_starts"]
        if starts.shape[0] == 0:
            return cutoff
        pixels = self._cache["pix_sorted"][starts]
        ends = np.append(starts[1:], np.int64(len(self)))
        kill = starts + term_rank[pixels] + lag
        live = kill < ends
        cutoff[pixels[live]] = self.prim_ids[self._pixel_order[kill[live]]]
        return cutoff

    def het_blended_mask(self, threshold=DEFAULT_TERMINATION_ALPHA, lag=0):
        """Fragments the hardware actually blends under HET with ``lag``.

        Superset of :meth:`et_survivor_mask` when ``lag > 0`` (late kills
        mean extra blends); the extra blends only push accumulated alpha
        past the threshold, so the image error stays bounded by
        ``1 - threshold``.
        """
        key = ("het_blended", round(float(threshold), 9), int(lag))
        if key not in self._cache:
            self._cache[key] = (self.unpruned
                                & self.unterminated_on_arrival(threshold, lag))
        return self._cache[key]

    def _terminating_slots(self, threshold):
        """``(pixels, slots, starts)`` of every pixel that terminates.

        ``slots`` is the pixel-sorted index of the pixel's first fragment
        arriving with accumulated alpha already at/above ``threshold``
        (the first one perfect HET would kill) and ``starts`` the pixel's
        segment offset: the first killed index at or after each segment
        start (one ``searchsorted`` over the killed indices), kept where
        it still lies inside the segment.
        """
        self._ensure_arrival_sorted()
        n = len(self)
        starts = self._cache["pixel_starts"]
        if n == 0:
            return starts, starts, starts
        # The sentinel ``n`` lies past every segment, so each search
        # lands on a real index.
        killed = np.append(
            np.flatnonzero(self._cache["arrival_sorted"] >= threshold),
            np.int64(n))
        first = killed[np.searchsorted(killed, starts)]
        done = first < np.append(starts[1:], np.int64(n))
        seg_starts = starts[done]
        return (self._cache["pix_sorted"][seg_starts], first[done],
                seg_starts)

    def _term_rank(self, threshold):
        """Per-pixel termination rank: the rank within its pixel of the
        first fragment perfect HET would kill; pixels that never terminate
        get a rank beyond any fragment count."""
        key = ("term_rank", round(float(threshold), 9))
        if key not in self._cache:
            pixels, slots, starts = self._terminating_slots(threshold)
            term_rank = np.full(self.n_pixels, len(self) + 1, dtype=np.int64)
            term_rank[pixels] = slots - starts
            self._cache[key] = term_rank
        return self._cache[key]

    def exit_prims(self, threshold=DEFAULT_TERMINATION_ALPHA):
        """Per-pixel primitive of the first fragment perfect HET would kill
        (``-1`` where the pixel never terminates), as int32."""
        key = ("exit_prim", round(float(threshold), 9))
        if key not in self._cache:
            pixels, slots, _starts = self._terminating_slots(threshold)
            exit_prim = np.full(self.n_pixels, -1, dtype=np.int32)
            exit_prim[pixels] = self.prim_ids[self._pixel_order[slots]]
            self._cache[key] = exit_prim
        return self._cache[key]

    # ------------------------------------------------------------------
    # Images and per-pixel statistics
    # ------------------------------------------------------------------

    def _blend_weights(self, early_term, threshold):
        """Per-fragment colour/alpha blend weights of a front-to-back pass."""
        blended = self.et_survivor_mask(threshold) if early_term else self.unpruned
        transmittance = 1.0 - self.arrival_alpha
        weights = transmittance * self.alphas.astype(np.float64)
        return np.where(blended, weights, 0.0)

    @property
    def accumulated_alpha(self):
        """Final accumulated alpha per pixel, flat ``(n_pixels,)``.

        The one producer of this map: ``blend_image(early_term=False)``
        returns a copy of it as its alpha map (the blend weights telescope
        to the pixel's final accumulated alpha).  It skips the colour pass
        and is cached, so consumers that only need termination state
        (e.g. :meth:`~repro.hwmodel.pipeline.DrawWorkload.from_stream`)
        never pay for a full re-blend.

        Computed straight from the pixel-sorted arrival caches: the blend
        weights are formed in the sorted domain (``alpha_eff`` is zero for
        pruned fragments, so the ``where(blended, ...)`` select is the
        multiplication itself) and summed with a bincount over the sorted
        stream, so each pixel's partial sums accumulate in draw order and
        the arrival scatter is skipped entirely.
        """
        if "accumulated_alpha" not in self._cache:
            self._ensure_arrival_sorted()
            # In place: the float32 alphas widen exactly inside the
            # multiply, so this is ``(1 - arrival) * float64(alpha)``.
            weights = 1.0 - self._cache["arrival_sorted"]
            weights *= self._cache["alpha_eff_sorted"]
            self._cache["accumulated_alpha"] = _weighted_bincount(
                self._cache["pix_sorted"], weights, self.n_pixels)
        return self._cache["accumulated_alpha"]

    def blend_image(self, early_term=False, threshold=DEFAULT_TERMINATION_ALPHA):
        """Front-to-back blend to an image.

        Returns ``(image, alpha_map)`` with ``image`` shaped ``(h, w, 3)``
        and ``alpha_map`` ``(h, w)``.  With ``early_term`` the blend stops
        once a pixel's accumulated alpha reaches ``threshold`` (identical to
        the reference otherwise).
        """
        weights = self._blend_weights(early_term, threshold)
        pix = self.pixel_ids
        colors = self.prim_colors[self.prim_ids]
        # One interleaved bincount over an (n, 3) contribution array instead
        # of a per-channel Python loop; for each (pixel, channel) bin the
        # partial sums still accumulate in fragment order, so the image is
        # bit-identical to three separate per-channel bincounts.
        contrib = weights[:, None] * colors
        keys = pix[:, None] * 3 + np.arange(3, dtype=np.int64)
        image = _weighted_bincount(
            keys.ravel(), contrib.ravel(),
            self.n_pixels * 3).reshape(self.n_pixels, 3)
        if early_term:
            alpha_map = _weighted_bincount(pix, weights, self.n_pixels)
        else:
            alpha_map = self.accumulated_alpha.copy()
        return (image.reshape(self.height, self.width, 3),
                alpha_map.reshape(self.height, self.width))

    def fragments_per_pixel(self, kind="unpruned",
                            threshold=DEFAULT_TERMINATION_ALPHA):
        """Per-pixel fragment counts as an ``(h, w)`` int64 map.

        ``kind`` selects which fragments count:

        * ``"all"`` — every rasterised fragment;
        * ``"unpruned"`` — fragments blended without early termination
          (Figure 7 left);
        * ``"early_term"`` — fragments blended with perfect early
          termination (Figure 7 right).
        """
        if kind == "all":
            mask = None
        elif kind == "unpruned":
            mask = self.unpruned
        elif kind == "early_term":
            mask = self.et_survivor_mask(threshold)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        pix = self.pixel_ids if mask is None else self.pixel_ids[mask]
        counts = np.bincount(pix, minlength=self.n_pixels)
        return counts.reshape(self.height, self.width)

    def n_unpruned(self):
        """Fragments blended without early termination (cached count)."""
        if "unpruned_count" not in self._cache:
            self._cache["unpruned_count"] = int(
                np.count_nonzero(self.unpruned))
        return self._cache["unpruned_count"]

    def n_et_survivors(self, threshold=DEFAULT_TERMINATION_ALPHA):
        """Fragments blended under perfect early termination: the size of
        :meth:`et_survivor_mask`, counted in the pixel-sorted domain (the
        mask is a permutation of the sorted one) without building it."""
        key = ("et_count", round(float(threshold), 9))
        if key not in self._cache:
            self._ensure_arrival_sorted()
            self._cache[key] = int(np.count_nonzero(
                (self._cache["alpha_eff_sorted"] > 0)
                & (self._cache["arrival_sorted"] < threshold)))
        return self._cache[key]

    def termination_ratio(self, threshold=DEFAULT_TERMINATION_ALPHA):
        """Blended fragments without ET divided by blended with ET.

        This is the paper's "early termination ratio" (Figure 21); >= 1 by
        construction, and 1.0 when no pixel ever saturates.
        """
        with_et = self.n_et_survivors(threshold)
        without_et = self.n_unpruned()
        if with_et == 0:
            return 1.0
        return without_et / with_et

    # ------------------------------------------------------------------
    # Quad / tile structure
    # ------------------------------------------------------------------

    def quad_table(self, threshold=DEFAULT_TERMINATION_ALPHA, lag=0):
        """Aggregate fragments into 2x2 quads (see :class:`QuadTable`).

        ``lag`` selects the HET in-flight window baked into the table's
        termination masks (see :meth:`unterminated_on_arrival`).  On a
        stream carrying a :class:`~repro.render.frameir.FrameIR` the table
        materialises from the IR's precomputed quad grouping; otherwise
        it takes the original sort-based construction.  Both paths are
        bit-identical (fuzz-pinned by ``tests/test_frameir.py``).
        """
        key = ("quad_table", round(float(threshold), 9), int(lag))
        if key not in self._cache:
            if self.frameir is not None:
                self._cache[key] = QuadTable.from_ir(self, self.frameir,
                                                     threshold, lag)
            else:
                self._cache[key] = QuadTable.from_stream(self, threshold, lag)
        return self._cache[key]


class _QuadColumnBuilder:
    """Deferred per-quad aggregate reductions of a :class:`QuadTable`.

    Holds the quad grouping of the fragment stream (the fragment sort
    ``order``, the per-quad segment ``starts``, and the ``emit``
    permutation into emission order) and materialises each aggregate
    column on demand with the exact reductions the eager path used.

    The stream is held through a weak reference.  The stream owns the
    table (in its cache), so a strong back-reference would close a
    ``stream -> table -> builder -> stream`` cycle that only the cyclic
    garbage collector frees, keeping whole frames resident long after
    their results were dropped.  Every consumer of a table (the draw
    workload, the experiments) holds the stream anyway.
    """

    def __init__(self, stream, threshold, lag, order, starts, emit):
        self._stream = weakref.ref(stream)
        self.threshold = threshold
        self.lag = lag
        self.order = order
        self.starts = starts
        self.emit = emit
        self._bit = None

    @property
    def stream(self):
        stream = self._stream()
        if stream is None:
            raise ReferenceError(
                "a QuadTable column was read after its FragmentStream was "
                "freed; keep the stream alive while reading the table")
        return stream

    def _bits(self):
        """Coverage bit (y & 1) * 2 + (x & 1) per grouped fragment."""
        if self._bit is None:
            stream, order = self.stream, self.order
            shift = ((stream.y[order] & 1) * 2
                     + (stream.x[order] & 1)).astype(np.uint8)
            self._bit = np.left_shift(np.uint8(1), shift)
        return self._bit

    def _fragment_flags(self, name):
        stream = self.stream
        if name.endswith("unpruned"):
            flags = stream.unpruned
        elif name.endswith("et_blended") or name.endswith("mask_et"):
            flags = stream.het_blended_mask(self.threshold, self.lag)
        else:
            flags = stream.unterminated_on_arrival(self.threshold, self.lag)
        if self.order is None:
            return flags.view(np.uint8)
        return flags[self.order].view(np.uint8)

    def column(self, name):
        # Count columns reduce in int32 (narrower passes than int64, still
        # overflow-proof); mask columns reduce in uint8 — a bitwise OR of
        # 4-bit coverage masks can never overflow.  Results widen to the
        # table's int64 convention afterwards.
        if name == "n_fragments":
            ones = np.ones(len(self.stream), dtype=np.int32)
            per_quad = np.add.reduceat(ones, self.starts)
        elif name.startswith("n_"):
            per_quad = np.add.reduceat(
                self._fragment_flags(name).astype(np.int32), self.starts)
        else:
            per_quad = np.bitwise_or.reduceat(
                self._bits() * self._fragment_flags(name), self.starts)
        return per_quad[self.emit].astype(np.int64)


class _IRQuadColumnBuilder(_QuadColumnBuilder):
    """Columns served from the FrameIR's quad view.

    Metadata columns come straight from :meth:`~repro.render.frameir.
    QuadIR.meta`; aggregates reduce over the per-quad fragment *slots*
    (:meth:`~repro.render.frameir.QuadIR.slots`) — up to four direct
    emission-stream offsets per quad, one per coverage bit, combined with
    padded gathers, so there is no ``order`` gather, no fragment sort and
    no per-fragment coverage bit.  All aggregates are integer sums or
    bitwise ORs, so the regrouped reduction is exactly the per-quad value
    the legacy builder computes.
    """

    #: The two HET masks, built together by one nibble-packed reduction.
    _TERMINATION_MASKS = ("mask_unterminated", "mask_et")

    def __init__(self, stream, threshold, lag, ir_quads):
        super().__init__(stream, threshold, lag, order=None, starts=None,
                         emit=None)
        self.ir_quads = ir_quads

    def column(self, name):
        if name in QuadTable._META_COLUMNS:
            return self.ir_quads.meta(name)
        return self._aggregate(name).astype(np.int64)

    def _aggregate(self, name):
        """One aggregate column in uint8 (counts are at most 4, masks 4
        bits), cached read-only on the stream under ``(name, threshold,
        lag)`` — where a coherence full hit installs it, so a revisited
        frame's draw never rebuilds the quad slots."""
        stream = self.stream
        tag = (round(float(self.threshold), 9), int(self.lag))
        out = stream._cache.get((name,) + tag)
        if out is None:
            if name == "n_fragments":
                columns = {name: self.ir_quads.frag_counts()}
            elif name.startswith("n_"):
                columns = {name: self.ir_quads.reduce_add(
                    self._fragment_flags(name))}
            elif name in self._TERMINATION_MASKS:
                # ``mask_et`` blends exactly the unpruned fragments of
                # ``mask_unterminated``: pack both flags into one byte and
                # split the per-quad nibbles.
                unterminated = stream.unterminated_on_arrival(
                    self.threshold, self.lag).view(np.uint8)
                packed = stream.unpruned.view(np.uint8) << 4
                packed |= 1
                packed *= unterminated
                both = self.ir_quads.reduce_mask(packed)
                columns = {"mask_unterminated": both & 15,
                           "mask_et": both >> 4}
            else:
                columns = {name: self.ir_quads.reduce_mask(
                    self._fragment_flags(name))}
            for key, value in columns.items():
                value.flags.writeable = False
                stream._cache[(key,) + tag] = value
            out = columns[name]
        return out


class QuadTable:
    """Per-quad aggregation of a fragment stream.

    The hardware pipeline operates on 2x2-fragment quads from fine raster
    onward; this table is the quad-granular view every hardware model uses.
    Rows are sorted by ``(prim_id, tile_id, qpos)`` — the order in which the
    rasteriser emits them.

    Attributes (parallel arrays, one row per quad)
    ----------------------------------------------
    prim_ids:        emitting primitive.
    qx, qy:          global quad coordinates (pixel // 2).
    tile_ids:        screen-tile index (16x16 px tiles, row-major).
    grid_ids:        tile-grid index (4x4 tiles = 64x64 px, row-major).
    qpos:            quad position within its tile, 0..63.
    n_fragments:     covered pixels in the quad (1..4).
    n_unpruned:      fragments passing alpha pruning (blended by baseline).
    n_et_blended:    fragments blended under HET with the table's lag
                     (== perfect early termination when ``lag == 0``).
    n_unterminated:  fragments arriving before pixel termination + lag
                     (what the ZROP termination test sees — pruning
                     invisible).
    mask_unpruned:   4-bit coverage bitmap of unpruned fragments (bit index
                     ``(y & 1) * 2 + (x & 1)``), for exact union counting
                     when two quads merge.
    mask_et:         coverage bitmap of early-termination-blended fragments.
    mask_unterminated: coverage bitmap of fragments arriving unterminated.
    """

    #: Aggregate columns materialised on first access when the table was
    #: built lazily by :meth:`from_stream` — each hardware variant touches
    #: only a subset (baseline never reads the termination columns), so
    #: digestion skips the per-fragment reductions the draw won't use.
    _LAZY_COLUMNS = frozenset((
        "n_fragments", "n_unpruned", "n_et_blended", "n_unterminated",
        "mask_unpruned", "mask_et", "mask_unterminated",
    ))

    #: Metadata columns: eager on the legacy path (the sort produces them
    #: anyway) but deferred on the FrameIR path, where only the draw —
    #: never digestion — consumes them.
    _META_COLUMNS = frozenset((
        "prim_ids", "qx", "qy", "tile_ids", "grid_ids", "qpos",
    ))

    def __init__(self, prim_ids, qx, qy, tile_ids, grid_ids, qpos,
                 n_fragments, n_unpruned, n_et_blended, n_unterminated,
                 mask_unpruned, mask_et, mask_unterminated,
                 width, height, threshold, _lazy=None):
        self._lazy = _lazy
        columns = dict(
            prim_ids=prim_ids, qx=qx, qy=qy, tile_ids=tile_ids,
            grid_ids=grid_ids, qpos=qpos,
            n_fragments=n_fragments, n_unpruned=n_unpruned,
            n_et_blended=n_et_blended, n_unterminated=n_unterminated,
            mask_unpruned=mask_unpruned, mask_et=mask_et,
            mask_unterminated=mask_unterminated)
        for name, value in columns.items():
            if value is not None or _lazy is None:
                setattr(self, name, value)
        self.width = width
        self.height = height
        self.threshold = threshold
        #: Precomputed (prim, screen-tile) group ranges when the table was
        #: materialised from a FrameIR (:class:`~repro.render.frameir.
        #: GroupIR`); ``None`` for legacy-built tables.
        self.ir_groups = None

    def __len__(self):
        if "prim_ids" in self.__dict__:
            return self.prim_ids.shape[0]
        return len(self._lazy.ir_quads)

    def __getattr__(self, name):
        # Only reached for attributes not set in __init__, i.e. deferred
        # columns of a lazily built table.
        cls = type(self)
        if (name in cls._LAZY_COLUMNS or name in cls._META_COLUMNS) \
                and self.__dict__.get("_lazy"):
            value = self._lazy.column(name)
            setattr(self, name, value)
            if all(column in self.__dict__
                   for column in cls._LAZY_COLUMNS | cls._META_COLUMNS):
                # Every column is materialised: drop the builder so it
                # stops pinning the stream and its O(n_fragments) index
                # arrays.
                self._lazy = None
            return value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @classmethod
    def from_stream(cls, stream, threshold=DEFAULT_TERMINATION_ALPHA, lag=0):
        """Build the table from a :class:`FragmentStream`.

        ``lag`` is the HET in-flight window (fragments per pixel that still
        pass the termination test after the threshold crossing).  The
        per-quad aggregate columns (fragment counts, coverage bitmaps) are
        deferred: each is computed on first attribute access, identical to
        the eager reductions.
        """
        n = len(stream)
        width, height = stream.width, stream.height
        tiles_x = -(-width // TILE_SIZE)
        grids_x = -(-tiles_x // TILE_GRID_TILES)
        if n == 0:
            empty_i = np.empty(0, dtype=np.int64)
            return cls(empty_i, empty_i, empty_i, empty_i, empty_i, empty_i,
                       empty_i, empty_i, empty_i, empty_i,
                       empty_i, empty_i, empty_i,
                       width, height, threshold)

        qx = stream.x // QUAD_SIZE
        qy = stream.y // QUAD_SIZE
        quads_x = -(-width // QUAD_SIZE)
        # Narrow int32 local key, one widening combine with the prim id.
        local_key = qy * np.int32(quads_x) + qx
        quad_key = stream.prim_ids.astype(np.int64)
        quad_key *= quads_x * -(-height // QUAD_SIZE)
        quad_key += local_key
        order = np.argsort(quad_key, kind="stable")
        sorted_key = quad_key[order]
        starts = segment_boundaries(sorted_key)

        first = order[starts]
        q_prim = stream.prim_ids[first].astype(np.int64)
        q_qx = qx[first].astype(np.int64)
        q_qy = qy[first].astype(np.int64)
        tile_x = q_qx // QUADS_PER_TILE_AXIS
        tile_y = q_qy // QUADS_PER_TILE_AXIS
        tile_ids = tile_y * tiles_x + tile_x
        grid_ids = (tile_y // TILE_GRID_TILES) * grids_x + (tile_x // TILE_GRID_TILES)
        qpos = ((q_qy % QUADS_PER_TILE_AXIS) * QUADS_PER_TILE_AXIS
                + (q_qx % QUADS_PER_TILE_AXIS))

        # Emission order: primitive-major, then tile, then quad position.
        # One stable sort on the combined key is the same permutation the
        # three-key lexsort produced (the key encodes the triple
        # lexicographically and both sorts are stable).
        n_tiles = tiles_x * (-(-height // TILE_SIZE))
        emit = np.argsort(
            (q_prim * n_tiles + tile_ids) * QUADS_PER_TILE_AXIS ** 2 + qpos,
            kind="stable")
        lazy = _QuadColumnBuilder(stream, threshold, lag, order, starts, emit)
        return cls(
            prim_ids=q_prim[emit], qx=q_qx[emit], qy=q_qy[emit],
            tile_ids=tile_ids[emit], grid_ids=grid_ids[emit],
            qpos=qpos[emit],
            n_fragments=None, n_unpruned=None,
            n_et_blended=None, n_unterminated=None,
            mask_unpruned=None, mask_et=None,
            mask_unterminated=None,
            width=width, height=height, threshold=threshold,
            _lazy=lazy,
        )

    @classmethod
    def from_ir(cls, stream, frameir, threshold=DEFAULT_TERMINATION_ALPHA,
                lag=0):
        """Materialise the table from the stream's FrameIR.

        Bit-identical to :meth:`from_stream` — same rows in the same
        ``(prim, tile, qpos)`` order, same aggregate columns — but the
        grouping comes from the IR's raster-derived quad structure, so no
        fragment-level sort (and no ``emit`` permutation) is needed.  The
        IR's (prim, tile) group ranges ride along as :attr:`ir_groups`
        for :class:`~repro.hwmodel.pipeline.DrawWorkload`.
        """
        if len(stream) == 0:
            return cls.from_stream(stream, threshold, lag)
        quads = frameir.quads()
        lazy = _IRQuadColumnBuilder(stream, threshold, lag, quads)
        table = cls(
            prim_ids=None, qx=None, qy=None,
            tile_ids=None, grid_ids=None, qpos=None,
            n_fragments=None, n_unpruned=None,
            n_et_blended=None, n_unterminated=None,
            mask_unpruned=None, mask_et=None,
            mask_unterminated=None,
            width=stream.width, height=stream.height, threshold=threshold,
            _lazy=lazy,
        )
        table.ir_groups = quads.groups
        return table
