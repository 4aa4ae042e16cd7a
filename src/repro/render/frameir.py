"""FrameIR: one columnar frame representation shared by every consumer.

The rasteriser resolves each splat's coverage as *per-scanline pixel
intervals* (see :func:`repro.render.splat_raster._row_intervals`) and then
throws that structure away, leaving every downstream stage — quad
digestion, the flush planner, the backends — to rebuild fragment grouping
with full-stream sorts.  :class:`FrameIR` keeps the row-interval structure
alive on the emitted stream and derives the shared groupings *from it*:

* the **quad table rows** (2x2 quads ordered by ``(prim, tile, qpos)`` —
  the emission order :class:`~repro.render.fragstream.QuadTable` and the
  TC/TGC coalescers consume) come straight out of integer range
  arithmetic on the row intervals: scanline pairs form quad rows, tile
  splits cut them into *chunklets*, and only the chunklet list — two
  orders of magnitude smaller than the fragment stream — is ever sorted.
  In particular the quad-emission sort over shuffled ``(prim, tile,
  qpos)`` keys, the most expensive single step of legacy digestion, is
  gone entirely;
* the **(prim, screen-tile) group ranges** that
  :class:`~repro.hwmodel.pipeline.DrawWorkload` and
  :func:`~repro.hwmodel.flushplan.build_flush_plan` iterate are chunklet
  runs, so digestion reads them off the IR instead of re-deriving them
  with per-quad reductions;
* the **fragment grouping** (the permutation gathering the stream into
  per-quad runs) is materialised lazily — like the quad table's
  aggregate columns, it is only needed once the draw executes — from
  per-quad span arithmetic, with no fragment sort.

Exactness is the contract: the IR-built quad table is **bit-identical** —
same rows in the same order, same aggregate columns — to the legacy
sort-based construction, which is retained behind ``ir="legacy"`` as the
oracle and pinned by the fuzz tests in ``tests/test_frameir.py``.

The ``ir`` knob
---------------
The digestion path is chosen once, where the stream is made:
:func:`~repro.render.splat_raster.rasterize_splats` attaches a FrameIR
under ``ir="auto"`` (the default) and emits a bare stream under
``ir="legacy"``.  Every consumer then takes the IR path exactly when
``stream.frameir is not None``; hand-built and scalar-emitted streams
carry no IR and digest through the legacy path.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import popcount4, segment_boundaries

#: Valid values of the rasteriser's ``ir`` knob: attach a FrameIR
#: (FrameIR-backed digestion) or emit a bare stream (the retained
#: sort-based oracle).
IR_MODES = ("auto", "legacy")


def resolve_ir(ir="auto"):
    """Validate an ``ir`` knob value."""
    if ir not in IR_MODES:
        raise ValueError(f"unknown ir mode {ir!r}; choose from {IR_MODES}")
    return ir


def row_fragments(row_prim, row_y, row_xlo, row_fstart, n_fragments):
    """``(prim_ids, x, y)`` int32 per fragment of contiguous row runs.

    Row ``r`` emits fragments ``row_fstart[r]`` up to the next row's
    start (``n_fragments`` for the last row), at pixels ``row_xlo[r],
    row_xlo[r] + 1, ...`` of scanline ``row_y[r]``.  The one producer of
    a stream's coordinates from its rows: the rasteriser emits them this
    way, and the coherence carrier rebuilds a served frame's from its
    FrameIR.
    """
    n = int(n_fragments)
    counts = np.diff(row_fstart, append=n)
    prim_ids = np.repeat(row_prim.astype(np.int32), counts)
    y = np.repeat(row_y.astype(np.int32), counts)
    # Fused ragged expansion: ``x = xlo + (f - fstart)`` is a repeat of
    # ``xlo - fstart`` plus the global fragment index; every term fits
    # the index dtype.
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    x = np.repeat((row_xlo - row_fstart).astype(dtype), counts)
    x += np.arange(n, dtype=dtype)
    return prim_ids, x.astype(np.int32, copy=False), y


class GroupIR:
    """(primitive, screen-tile) group ranges over the IR's quad order.

    Mirrors the arrays :class:`~repro.hwmodel.pipeline.DrawWorkload`
    derives from the quad table — group ``g`` covers quad rows
    ``[starts[g], ends[g])`` — plus the per-group raster-tile counts, all
    computed from the chunklet pass instead of per-quad reductions.
    """

    __slots__ = ("starts", "ends", "prim", "tile", "grid", "n_rtiles")

    def __init__(self, starts, ends, prim, tile, grid, n_rtiles):
        self.starts = starts
        self.ends = ends
        self.prim = prim
        self.tile = tile
        self.grid = grid
        self.n_rtiles = n_rtiles

    def __len__(self):
        return self.starts.shape[0]


class QuadIR:
    """The IR's quad view: per-quad metadata plus lazy fragment reductions.

    Quads are ordered by ``(prim, tile_id, qpos)`` — exactly the emission
    order of the legacy :meth:`~repro.render.fragstream.QuadTable.
    from_stream` table, so no ``emit`` permutation exists on this path.

    Only the :class:`GroupIR` of (prim, screen-tile) ranges — what the
    digest phase actually consumes — is materialised up front.  Each
    int64 per-quad metadata column (:meth:`meta`: ``prim_ids``/``qx``/
    ``qy``/``tile_ids``/``grid_ids``/``qpos``, the :class:`~repro.render.
    fragstream.QuadTable` schema) and the fragment slots of the
    aggregate reductions (:meth:`slots`) expand lazily from the chunklet
    ranges when the draw first touches them.  :meth:`release` drops all
    of it but the groups, and the next use rebuilds it from the row
    arrays the view keeps.

    Per-quad aggregates never touch a permuted fragment stream: a quad
    covers at most the four pixels of its 2x2 footprint, each on an even
    or odd scanline of its pair, and row intervals are contiguous
    fragment runs, so the emission offset of each pixel's fragment is
    direct integer arithmetic (the *slot table*).  Each aggregate column
    is then four padded gathers combined with adds, or with shifted ORs
    into a coverage bitmap; the quad-table aggregates are integer sums and
    bitwise ORs, both associative, so the regrouped reduction is exactly
    the legacy per-quad value.
    """

    def __init__(self, row_prim, row_y, row_xlo, row_xhi, row_fstart,
                 n_fragments, width, height):
        # The row arrays themselves, not the FrameIR: a back-reference
        # would make a cycle that only the cyclic GC frees.
        self._raster = (row_prim, row_y, row_xlo, row_xhi, row_fstart,
                        int(width), int(height))
        (self.groups, self._chunk_state, self._p_qy,
         self._slot_state) = _quad_chunklets(*self._raster)
        self._n_quads = int(self._chunk_state[3][-1])
        self._n_fragments = int(n_fragments)
        self._meta = {}
        self._slots = None

    def _expansion(self):
        """``(chunk_state, p_qy, slot_state)``, the chunklet runs the
        metadata columns and slots expand from; rebuilt from the rows
        after :meth:`release` (the pass is deterministic, so the rebuilt
        state is identical)."""
        if self._chunk_state is None:
            (_groups, self._chunk_state, self._p_qy,
             self._slot_state) = _quad_chunklets(*self._raster)
        return self._chunk_state, self._p_qy, self._slot_state

    def __len__(self):
        return self._n_quads

    def meta(self, name):
        """One per-quad metadata column, built on first use.

        Digestion itself only needs the group ranges (eager above); the
        metadata columns — like the aggregate columns — are first touched
        when the draw executes, and each is expanded on its own, so a
        column no consumer reads (the HET+QM draw never reads
        ``prim_ids``/``tile_ids``/``grid_ids``) is never built or
        retained.
        """
        column = self._meta.get(name)
        if column is None:
            column = self._meta[name] = self._build_meta(name)
        return column

    def _build_meta(self, name):
        groups = self.groups
        if name in ("prim_ids", "tile_ids", "grid_ids"):
            # Constant over each (prim, tile) group, and groups are
            # consecutive quad runs.
            per_group = {"prim_ids": groups.prim, "tile_ids": groups.tile,
                         "grid_ids": groups.grid}[name]
            return np.repeat(per_group, groups.ends - groups.starts)
        (c_pair, c_qa, nq_c, q_offsets), p_qy, _ = self._expansion()
        if name == "qx":
            # Fused ragged expansion: ``repeat(base - offset)`` plus a
            # global arange *is* ``base + local``.
            return (np.repeat(c_qa - q_offsets[:-1], nq_c)
                    + np.arange(self._n_quads, dtype=np.int64))
        if name == "qy":
            # Constant over each chunklet (one scanline pair).
            return np.repeat(p_qy[c_pair], nq_c)
        if name == "qpos":
            return (self.meta("qy") & 7) * 8 + (self.meta("qx") & 7)
        raise KeyError(f"unknown quad metadata column {name!r}")

    def release(self):
        """Keep only :attr:`groups`: drop the metadata columns, the
        fragment slots and the chunklet state both expand from.  Each is
        rebuilt bit-identically from the row arrays on next use.  A
        sealed coherence state keeps its view released: a full hit reads
        only the groups (the draw's flush digest is served), so only
        other consumers rebuild."""
        self._meta = {}
        self._slots = None
        self._chunk_state = self._p_qy = self._slot_state = None

    def slots(self):
        """The four per-quad fragment slots, as emission-stream offsets.

        Returns ``(s0, s1, s2, s3)``: slot ``k`` holds the fragment at the
        quad's pixel with coverage bit ``k = (y & 1) * 2 + (x & 1)`` —
        left and right pixel of the even scanline, then of the odd one —
        or ``n_fragments`` where that pixel is not covered (reductions
        append a zero pad there).  int32 whenever the stream's offsets fit
        (int64 otherwise), expanded straight from the chunklet runs.
        Built on first use: the digest phase never needs it, only the
        draw's aggregate columns do.
        """
        if self._slots is None:
            n = self._n_fragments
            # Every intermediate below is bounded by ``2 * n``.
            narrow = 2 * n < np.iinfo(np.int32).max
            dtype, unsigned = ((np.int32, np.uint32) if narrow
                               else (np.int64, np.uint64))
            (c_pair, c_qa, nq_c, q_offsets), _, state = self._expansion()
            # Per chunklet and scanline (even, then odd): the offset of the
            # chunklet's first quad's left pixel inside the scanline's
            # interval, the interval length (zero when the scanline is
            # absent) and its first fragment, each gathered to every quad
            # of the chunklet.  ``2 * qx`` is the fused ragged expansion
            # of the chunklets' first quad columns (see :meth:`meta`).
            x2_base = (c_qa - q_offsets[:-1]) << 1
            chunk = np.repeat(np.arange(c_pair.shape[0], dtype=np.intp), nq_c)
            steps = np.arange(0, 2 * self._n_quads, 2, dtype=dtype)
            slots = []
            got = 0
            for xlo, length, fstart in (state[:3], state[3:]):
                rel = np.take((x2_base - xlo[c_pair]).astype(dtype), chunk)
                rel += steps
                length = np.take(length[c_pair].astype(unsigned), chunk)
                src = np.take(fstart[c_pair].astype(dtype), chunk)
                src += rel
                for _side in range(2):
                    # The pixel is covered iff its offset lies in
                    # ``[0, length)``: one unsigned compare.
                    absent = rel.view(unsigned) >= length
                    got += self._n_quads - int(np.count_nonzero(absent))
                    slots.append(np.where(absent, dtype(n), src))
                    rel += 1
                    src += 1
            if got != n:
                raise RuntimeError(
                    f"FrameIR quad slots lost fragments: got {got}, "
                    f"stream has {n}")
            self._slots = tuple(slots)
        return self._slots

    def frag_counts(self):
        """Covered pixels per quad (the ``n_fragments`` column), uint8."""
        n = self._n_fragments
        counts = np.zeros(self._n_quads, dtype=np.uint8)
        for slot in self.slots():
            counts += slot < n
        return counts

    def _padded_gathers(self, values):
        padded = np.append(values, np.zeros(1, dtype=values.dtype))
        return [np.take(padded, slot) for slot in self.slots()]

    def reduce_add(self, values):
        """Per-quad sums of an emission-order integer array, in its dtype
        (exact: the quad-table count columns are integer sums of at most
        four 0/1 flags, so regrouping by slot is associative and a uint8
        sum cannot overflow)."""
        out, *rest = self._padded_gathers(values)
        for part in rest:
            out += part
        return out

    def reduce_mask(self, flags):
        """Per-quad coverage bitmaps of an emission-order uint8 flag array.

        Each set bit ``b`` of a fragment's flags lands on bit
        ``b + k`` of its quad's result, ``k`` its coverage bit: 0/1 flags
        give the 4-bit coverage mask, and a nibble-packed ``u | v << 4``
        gives both masks at once (low and high nibble)."""
        out, *rest = self._padded_gathers(flags)
        for k, part in enumerate(rest, start=1):
            part <<= k
            out |= part
        return out


class FrameIR:
    """Columnar raster structure of one draw call.

    Parameters (all per *live* scanline row, in emission order)
    ----------------------------------------------------------
    row_prim:
        Emitting primitive id (non-decreasing).
    row_y:
        Scanline y (ascending within each primitive).
    row_xlo, row_xhi:
        Inclusive covered pixel interval of the row.
    row_fstart:
        Offset of the row's first fragment in the emitted stream (rows
        are contiguous fragment runs: ``row_fstart[r] + (x - row_xlo[r])``
        is fragment ``(x, row_y[r])``).
    n_fragments, width, height:
        Stream geometry.

    The quad view is built lazily on first use and cached; building it
    costs a handful of vectorised passes over rows, chunklets and quads
    plus a sort of the chunklet list (tens of thousands of entries for
    millions of fragments) — never a fragment-level sort.
    """

    def __init__(self, row_prim, row_y, row_xlo, row_xhi, row_fstart,
                 n_fragments, width, height):
        self.row_prim = row_prim
        self.row_y = row_y
        self.row_xlo = row_xlo
        self.row_xhi = row_xhi
        self.row_fstart = row_fstart
        self.n_fragments = int(n_fragments)
        self.width = int(width)
        self.height = int(height)
        self._quads = None

    @property
    def n_rows(self):
        return self.row_prim.shape[0]

    def quads(self):
        """The cached :class:`QuadIR` of this frame (built on first use)."""
        if self._quads is None:
            self._quads = QuadIR(self.row_prim, self.row_y, self.row_xlo,
                                 self.row_xhi, self.row_fstart,
                                 self.n_fragments, self.width, self.height)
        return self._quads


def _quad_chunklets(prim, y, xlo, xhi, fstart, width, height):
    """The row-to-chunklet pass of a :class:`QuadIR`.

    Returns ``(groups, chunk_state, p_qy, slot_state)``: the
    :class:`GroupIR`, the emission-ordered chunklet runs ``(c_pair,
    c_qa, nq_c, q_offsets)``, the per-pair quad row and the per-pair,
    per-scanline interval inputs of the fragment slots.
    """
    tiles_x = -(-width // 16)
    grids_x = -(-tiles_x // 4)
    n_rows = prim.shape[0]
    if n_rows == 0:
        empty = np.empty(0, dtype=np.int64)
        groups = GroupIR(empty, empty, empty, empty, empty, empty)
        return (groups, (empty, empty, empty, np.zeros(1, dtype=np.int64)),
                empty, (empty,) * 6)

    # --- quad-row pairs: adjacent scanlines sharing (prim, y // 2).
    # Rows arrive sorted by (prim, y) with one interval per scanline,
    # so each pair is 1 or 2 consecutive rows; a 2-row pair is always
    # (even y, odd y) in that order.
    qy_row = y >> 1
    pair_key = prim * np.int64(-(-height // 2)) + qy_row
    pstarts = segment_boundaries(pair_key)
    pends = np.concatenate(
        (pstarts[1:], np.asarray([n_rows], dtype=np.int64)))
    two = (pends - pstarts) == 2
    first_parity_odd = (y[pstarts] & 1) == 1
    e_row = np.where(two | ~first_parity_odd, pstarts, -1)
    o_row = np.where(two, pstarts + 1,
                     np.where(first_parity_odd, pstarts, -1))
    n_pairs = pstarts.shape[0]
    p_prim = prim[pstarts]
    p_qy = qy_row[pstarts]

    e_ok = e_row >= 0
    o_ok = o_row >= 0
    e_idx = np.maximum(e_row, 0)
    o_idx = np.maximum(o_row, 0)
    # Sentinel bounds for absent scanlines (an empty interval far
    # outside any real coordinate) make every later clip produce a
    # zero-length span without separate validity masks.
    big = np.int64(1) << 40
    e_xlo = np.where(e_ok, xlo[e_idx], big)
    e_xhi = np.where(e_ok, xhi[e_idx], -big)
    o_xlo = np.where(o_ok, xlo[o_idx], big)
    o_xhi = np.where(o_ok, xhi[o_idx], -big)

    # --- per-pair quad-x runs.  The pair's quad columns are the union
    # of its two rows' qx ranges: one run when they overlap or touch,
    # two runs (ascending) when a steep splat leaves a gap.
    a_e, b_e = e_xlo >> 1, e_xhi >> 1
    a_o, b_o = o_xlo >> 1, o_xhi >> 1
    both = e_ok & o_ok
    merged = both & (np.maximum(a_e, a_o) <= np.minimum(b_e, b_o) + 1)
    e_first = a_e <= a_o
    one_a = np.where(e_ok, a_e, a_o)
    one_b = np.where(e_ok, b_e, b_o)
    run1_a = np.where(both, np.minimum(a_e, a_o), one_a)
    run1_b = np.where(merged, np.maximum(b_e, b_o),
                      np.where(both, np.where(e_first, b_e, b_o), one_b))
    run2_ok = both & ~merged
    run2_a = np.where(e_first, a_o, a_e)
    run2_b = np.where(e_first, b_o, b_e)

    run_a = np.empty(2 * n_pairs, dtype=np.int64)
    run_b = np.empty(2 * n_pairs, dtype=np.int64)
    run_ok = np.empty(2 * n_pairs, dtype=bool)
    run_a[0::2], run_a[1::2] = run1_a, run2_a
    run_b[0::2], run_b[1::2] = run1_b, run2_b
    run_ok[0::2], run_ok[1::2] = True, run2_ok
    run_pair = np.repeat(np.arange(n_pairs, dtype=np.int64), 2)
    keep = np.flatnonzero(run_ok)
    run_a, run_b, run_pair = run_a[keep], run_b[keep], run_pair[keep]

    # --- chunklets: runs split at screen-tile columns (8 quads).
    t0 = run_a >> 3
    t1 = run_b >> 3
    c_counts = t1 - t0 + 1
    n_chunks = int(c_counts.sum())
    c_offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(c_counts)[:-1]))
    # Fused ragged expansion: ``repeat(base - offset)`` plus a global
    # arange *is* ``base + local``.
    c_tx = (np.repeat(t0 - c_offsets, c_counts)
            + np.arange(n_chunks, dtype=np.int64))
    c_pair = np.repeat(run_pair, c_counts)
    c_qa = np.maximum(np.repeat(run_a, c_counts), c_tx << 3)
    c_qb = np.minimum(np.repeat(run_b, c_counts), (c_tx << 3) + 7)

    # Emission order of the legacy table is (prim, tile, qpos) =
    # (prim, tile_y, tile_x, qy & 7, qx asc).  Chunklets arrive
    # (prim, qy, qx)-ordered; one stable sort of the *chunklet list*
    # (not the fragments) produces the emission order, with same-key
    # chunklets (two runs of one pair in one tile) kept qx-ascending.
    c_ty = p_qy[c_pair] >> 3
    c_iy = p_qy[c_pair] & 7
    c_key = ((p_prim[c_pair] * (-(-height // 16)) + c_ty) * tiles_x
             + c_tx) * 8 + c_iy
    c_order = np.argsort(c_key, kind="stable")
    c_pair = c_pair[c_order]
    c_tx = c_tx[c_order]
    c_qa = c_qa[c_order]
    c_qb = c_qb[c_order]
    c_key = c_key[c_order]

    # --- quads exist only as chunklet ranges at this point; their
    # metadata columns and fragment slots expand lazily (see
    # :meth:`QuadIR.meta` / :meth:`QuadIR.slots`) once the draw
    # touches them.
    nq_c = c_qb - c_qa + 1
    q_offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(nq_c)))
    n_quads = int(q_offsets[-1])

    groups = _build_groups(c_key, c_pair, c_tx, c_qa, c_qb, q_offsets,
                           n_quads, p_prim, p_qy, tiles_x, grids_x)
    chunk_state = (c_pair, c_qa, nq_c, q_offsets)
    # Per pair and scanline: the interval's first pixel, its length
    # (zero when the scanline is absent) and its first fragment.
    slot_state = (xlo[e_idx], np.maximum(e_xhi - e_xlo + 1, 0),
                  fstart[e_idx],
                  xlo[o_idx], np.maximum(o_xhi - o_xlo + 1, 0),
                  fstart[o_idx])
    return groups, chunk_state, p_qy, slot_state


def _build_groups(c_key, c_pair, c_tx, c_qa, c_qb, q_offsets, n_quads,
                  p_prim, p_qy, tiles_x, grids_x):
    """(prim, tile) group ranges from the sorted chunklet list.

    Chunklets are emission-ordered, so a (prim, tile) group is a
    consecutive chunklet run — its boundaries are where the chunklet key
    changes once the quad-position bits are dropped.  The per-group
    raster-tile count (8x8 px raster tiles inside the 16x16 screen tile)
    reduces over chunklet quad ranges: a chunklet's quads lie in one
    half-row of the tile's 2x2 raster-tile grid, covering its left half
    iff it starts left of quad column 4 and its right half iff it ends at
    or past it.
    """
    g_key = c_key >> 3
    cg_starts = segment_boundaries(g_key)
    group_starts = q_offsets[cg_starts]
    group_ends = np.concatenate((group_starts[1:], [np.int64(n_quads)]))
    g_pair = c_pair[cg_starts]
    tile_y = p_qy[g_pair] >> 3
    group_prim = p_prim[g_pair]
    group_tile = tile_y * tiles_x + c_tx[cg_starts]
    group_grid = (tile_y >> 2) * grids_x + (c_tx[cg_starts] >> 2)
    rt_base = ((p_qy[c_pair] & 7) >> 2) * 2
    bits = (np.where((c_qa & 7) < 4, np.int64(1) << rt_base, 0)
            | np.where((c_qb & 7) >= 4, np.int64(2) << rt_base, 0))
    rt_mask = np.bitwise_or.reduceat(bits, cg_starts)
    group_n_rtiles = popcount4(rt_mask)
    return GroupIR(group_starts, group_ends, group_prim, group_tile,
                   group_grid, group_n_rtiles)
