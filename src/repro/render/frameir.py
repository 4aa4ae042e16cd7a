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
``"auto"``
    Use the IR when the stream carries one (streams emitted by
    :func:`~repro.render.splat_raster.rasterize_splats`), fall back to the
    legacy path otherwise (hand-built streams, the scalar rasteriser).
``"frameir"``
    Require the IR; raise if the stream has none.
``"legacy"``
    Always use the original sort-based digestion (the oracle).

The process-wide default is ``"auto"`` and can be overridden with the
``REPRO_IR`` environment variable — CI runs the golden raster and golden
flush suites under both ``REPRO_IR=frameir`` and ``REPRO_IR=legacy``.
"""

from __future__ import annotations

import numpy as np

from repro import faults, knobs
from repro.knobs import IR_MODES  # re-exported; declared centrally
from repro.utils.arrays import popcount4, segment_boundaries


def resolve_ir(ir=None):
    """Normalise an ``ir`` knob value, defaulting to ``$REPRO_IR`` / auto."""
    if ir is None:
        ir = knobs.env("REPRO_IR")
    if ir not in IR_MODES:
        raise ValueError(f"unknown ir mode {ir!r}; choose from {IR_MODES}")
    return ir


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
    ranges when the draw first touches them.

    Per-quad aggregates never touch a permuted fragment stream: a quad
    holds at most four fragments — up to two consecutive on its even
    scanline, up to two on its odd scanline — and row intervals are
    contiguous fragment runs, so all four emission offsets are direct
    integer arithmetic (the *slot table*).  Each aggregate column is then
    four padded gathers combined with adds or ORs; the quad-table
    aggregates are integer sums and bitwise ORs, both associative, so the
    regrouped reduction is exactly the legacy per-quad value.
    """

    def __init__(self, groups, chunk_state, p_qy, slot_state, n_quads,
                 n_fragments):
        self.groups = groups
        self._chunk_state = chunk_state
        self._p_qy = p_qy
        self._slot_state = slot_state
        self._n_quads = int(n_quads)
        self._n_fragments = int(n_fragments)
        self._meta = {}
        self._slots = None
        self._q_pair = None

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
            self._release_inputs()
        return column

    def _build_meta(self, name):
        groups = self.groups
        if name in ("prim_ids", "tile_ids", "grid_ids"):
            # Constant over each (prim, tile) group, and groups are
            # consecutive quad runs.
            per_group = {"prim_ids": groups.prim, "tile_ids": groups.tile,
                         "grid_ids": groups.grid}[name]
            return np.repeat(per_group, groups.ends - groups.starts)
        if name == "qx":
            _c_pair, c_qa, nq_c, q_offsets = self._chunk_state
            # Fused ragged expansion: ``repeat(base - offset)`` plus a
            # global arange *is* ``base + local``.
            return (np.repeat(c_qa - q_offsets[:-1], nq_c)
                    + np.arange(self._n_quads, dtype=np.int64))
        if name == "qy":
            return self._p_qy[self._pair_index()]
        if name == "qpos":
            return (self.meta("qy") & 7) * 8 + (self.meta("qx") & 7)
        raise KeyError(f"unknown quad metadata column {name!r}")

    def _pair_index(self):
        """Scanline-pair index per quad; only ``qy`` and the slots read
        it, so it is dropped once both exist (and rebuilt from the
        chunklet runs if released slots are rebuilt)."""
        if self._q_pair is None:
            c_pair, _c_qa, nq_c, _q_offsets = self._chunk_state
            self._q_pair = np.repeat(c_pair, nq_c)
        return self._q_pair

    def _release_inputs(self):
        """Drop the per-quad pair index once ``qy`` and the slots are
        built.  The chunklet runs and the per-pair slot inputs stay (they
        are per chunklet and per scanline pair, far smaller than the
        quads), so :meth:`release_slots` can drop the slots for good."""
        if "qy" in self._meta and self._slots is not None:
            self._q_pair = None
            self._p_qy = None

    def release_slots(self):
        """Drop the four per-quad slot arrays; :meth:`slots` rebuilds the
        identical arrays on next use.  A sealed coherence state keeps
        this view without them: a full hit serves every aggregate column
        the draw read, so only other consumers rebuild."""
        if self._slot_state is not None:
            self._slots = None
            self._q_pair = None

    def slots(self):
        """The four per-quad fragment slots, as emission-stream offsets.

        Returns ``(s0, s1, s2, s3)`` int64 arrays — first/second fragment
        of the even scanline span, then of the odd span — where absent
        slots hold ``n_fragments`` (reductions append a zero pad there).
        Built on first use: the digest phase never needs it, only the
        draw's aggregate columns do.
        """
        if self._slots is None:
            (e_xlo, e_xhi, o_xlo, o_xhi,
             e_fstart, o_fstart) = self._slot_state
            q_pair = self._pair_index()
            n = np.int64(self._n_fragments)
            x2 = self.meta("qx") << 1
            qe_xlo = e_xlo[q_pair]
            qo_xlo = o_xlo[q_pair]
            e_lo = np.maximum(x2, qe_xlo)
            e_hi = np.minimum(x2 + 1, e_xhi[q_pair])
            o_lo = np.maximum(x2, qo_xlo)
            o_hi = np.minimum(x2 + 1, o_xhi[q_pair])
            # Sentinel bounds of absent scanlines clip to negative counts.
            ec = np.maximum(e_hi - e_lo + 1, 0)
            oc = np.maximum(o_hi - o_lo + 1, 0)
            e_src = e_fstart[q_pair] + (e_lo - qe_xlo)
            o_src = o_fstart[q_pair] + (o_lo - qo_xlo)
            self._slots = (np.where(ec >= 1, e_src, n),
                           np.where(ec == 2, e_src + 1, n),
                           np.where(oc >= 1, o_src, n),
                           np.where(oc == 2, o_src + 1, n))
            got = int(ec.sum()) + int(oc.sum())
            if got != self._n_fragments:
                raise RuntimeError(
                    f"FrameIR quad slots lost fragments: got {got}, "
                    f"stream has {self._n_fragments}")
            self._release_inputs()
        return self._slots

    def frag_counts(self):
        """Covered pixels per quad (the ``n_fragments`` column), uint8."""
        n = self._n_fragments
        counts = np.zeros(self._n_quads, dtype=np.uint8)
        for slot in self.slots():
            counts += slot < n
        return counts

    def reduce_add(self, values):
        """Per-quad sums of an emission-order integer array, in its dtype
        (exact: the quad-table count columns are integer sums of at most
        four 0/1 flags, so regrouping by slot is associative and a uint8
        sum cannot overflow)."""
        s0, s1, s2, s3 = self.slots()
        padded = np.concatenate((values, np.zeros(1, dtype=values.dtype)))
        out = padded[s0]
        out += padded[s1]
        out += padded[s2]
        out += padded[s3]
        return out

    def reduce_or(self, values):
        """Per-quad bitwise OR of an emission-order integer array, in its
        dtype."""
        s0, s1, s2, s3 = self.slots()
        padded = np.concatenate((values, np.zeros(1, dtype=values.dtype)))
        out = padded[s0]
        out |= padded[s1]
        out |= padded[s2]
        out |= padded[s3]
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
            if faults.ENABLED:
                rule = faults.checkpoint("digest")
                if rule is not None:
                    # FrameIR digestion has no independent integrity
                    # oracle at this layer; model the corruption as
                    # immediately detected so the executor can heal by
                    # degrading to the legacy digestion path.
                    faults.corrupt_detected("digest")
            self._quads = self._build_quads()
        return self._quads

    def _build_quads(self):
        width, height = self.width, self.height
        tiles_x = -(-width // 16)
        grids_x = -(-tiles_x // 4)
        empty = np.empty(0, dtype=np.int64)
        if self.n_rows == 0:
            groups = GroupIR(empty, empty, empty, empty, empty, empty)
            quads = QuadIR(groups, chunk_state=None, p_qy=None,
                           slot_state=None, n_quads=0, n_fragments=0)
            quads._meta = {name: empty for name in
                           ("prim_ids", "qx", "qy", "tile_ids", "grid_ids",
                            "qpos")}
            quads._slots = (empty, empty, empty, empty)
            return quads

        prim = self.row_prim
        y = self.row_y
        xlo = self.row_xlo
        xhi = self.row_xhi
        fstart = self.row_fstart

        # --- quad-row pairs: adjacent scanlines sharing (prim, y // 2).
        # Rows arrive sorted by (prim, y) with one interval per scanline,
        # so each pair is 1 or 2 consecutive rows; a 2-row pair is always
        # (even y, odd y) in that order.
        qy_row = y >> 1
        pair_key = prim * np.int64(-(-height // 2)) + qy_row
        pstarts = segment_boundaries(pair_key)
        pends = np.concatenate(
            (pstarts[1:], np.asarray([self.n_rows], dtype=np.int64)))
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
        e_fstart = fstart[e_idx]
        o_fstart = fstart[o_idx]

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
        slot_state = (e_xlo, e_xhi, o_xlo, o_xhi, e_fstart, o_fstart)
        return QuadIR(groups, chunk_state, p_qy, slot_state, n_quads,
                      self.n_fragments)


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
